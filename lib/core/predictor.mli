(** The trained congestion predictor — Algorithm 1.

    Wraps the Siamese UNet with the paper's data pipeline (Fig. 3):
    per-channel feature normalization, nearest-neighbour resize of
    features and labels to the network resolution, training against the
    Eq.-4 loss (the sum over dies of root-mean-squared Frobenius
    error), 8x orientation augmentation, and resize of the predictions
    back to GCell resolution at inference. *)

type t = {
  net : Dco3d_nn.Siamese_unet.t;
  input_hw : int;  (** network resolution (paper: 224; default: 32) *)
  label_scale : float;  (** labels are divided by this during training *)
}

val make :
  Dco3d_nn.Siamese_unet.t -> input_hw:int -> label_scale:float -> t
(** A predictor from a network, after the checks {!load} applies to a
    file: positive resolution, positive finite label scale, the
    network's input channels equal to the feature pipeline's, and the
    resolution divisible by [2^depth].
    @raise Invalid_argument naming the first check that fails. *)

type report = {
  train_loss : float array;  (** per-epoch mean Eq.-4 loss *)
  test_loss : float array;
  epochs : int;
}

val train :
  ?epochs:int ->
  ?lr:float ->
  ?input_hw:int ->
  ?base_channels:int ->
  ?augment:bool ->
  ?seed:int ->
  train:Dataset.t ->
  test:Dataset.t ->
  unit ->
  t * report
(** Algorithm 1.  Defaults: [epochs = 12], [lr = 2e-3], [input_hw = 32],
    [base_channels = 8], [augment = true].  The test set is only scored,
    never trained on.
    @raise Invalid_argument as {!make} does, before any training step,
    when [input_hw] cannot feed the network. *)

val predict :
  ?numeric:[ `F32 | `I8 ] ->
  t -> Dco3d_tensor.Tensor.t -> Dco3d_tensor.Tensor.t ->
  Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t
(** [predict t f_bottom f_top] takes raw [7; ny; nx] GCell-resolution
    feature stacks and returns the predicted congestion maps at the
    same [ny; nx] resolution, in ground-truth (overflow) units.
    [~numeric:`I8] (default [`F32]) runs the memoized int8 compilation
    of the network instead of the float path. *)

val predict_batch :
  ?numeric:[ `F32 | `I8 ] ->
  t ->
  (Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t) array ->
  (Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t) array
(** [predict_batch t pairs] runs {!predict} for a whole batch of
    [(f_bottom, f_top)] stacks in one batched forward pass (one
    im2col/GEMM call per conv layer for the entire batch).  Element [i]
    is bit-identical to [predict t (fst pairs.(i)) (snd pairs.(i))] at
    every [DCO3D_JOBS] value — the serve micro-batcher coalesces
    requests on the strength of this guarantee.  Both guarantees hold
    on the int8 path ([~numeric:`I8]) as well. *)

val fingerprint : ?numeric:[ `F32 | `I8 ] -> t -> string
(** Hex digest covering the network architecture, every weight bit, the
    network resolution and the label scale — the model component of the
    serve result-cache key.  The numeric path is part of the identity:
    [fingerprint ~numeric:`I8 t] digests the quantized bits under a
    distinct domain tag, so an int8 and a float predictor can never
    share a cache key. *)

val evaluate :
  t -> Dataset.t -> (float * float) list
(** Per-die [(nrmse, ssim)] of every sample in the dataset (two entries
    per sample: bottom then top), computed at the network resolution
    (the paper evaluates at its fixed 224x224) — the Fig. 5b metrics. *)

val eq4_loss :
  Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t ->
  Dco3d_tensor.Tensor.t -> Dco3d_tensor.Tensor.t ->
  Dco3d_autodiff.Value.t
(** Eq. 4: [1/2 * (rmse_F(c0, t0) + rmse_F(c1, t1))]. *)

exception Load_error of string
(** Raised by {!load} on a missing, truncated or corrupt file (either
    the predictor file or its companion [.net] weights file); the
    message names the offending path and the cause. *)

val save : t -> string -> unit

val load : ?expect:Dco3d_nn.Siamese_unet.config -> string -> t
(** Restore a predictor written by {!save}.  When [expect] is given,
    weight files whose stored architecture disagrees with it are
    rejected with a message naming both configurations.  Regardless of
    [expect], the loaded pair of files is cross-checked ({!make}'s
    checks, plus weight shapes against the declared architecture) so
    that a mismatched or swapped file fails here instead of deep inside
    a convolution later.
    @raise Load_error on a missing, truncated, malformed or mismatched
    file. *)

val save_quantized : t -> string -> unit
(** Persist the standalone int8 artifact: resolution/scale header plus
    a companion [.qnet] file holding the quantized network (magic +
    digest framing). *)

val load_quantized : string -> t
(** Restore a predictor from an int8 artifact written by
    {!save_quantized}.  The returned predictor's int8 path
    ([predict ~numeric:`I8]) serves the artifact exactly; its float
    path carries the dequantized weights.  It shares {!load}'s header
    reader and cross-checks.
    @raise Load_error on a missing, truncated, corrupt or inconsistent
    file. *)
