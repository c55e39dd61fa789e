(** The paper's 3D congestion predictor: a Siamese UNet (Fig. 3).

    Both dies of the face-to-face 3D IC are processed by the {e same}
    encoder and decoder (shared weights — the dies are interchangeable),
    while a pointwise-convolution {e communication layer} at the
    bottleneck merges the two encoder outputs and hands each die's
    decoder a view of the other die.  We realize the merge as shared
    self/cross 1x1 convolutions ([out_d = act (self b_d + cross
    b_other)]), which keeps the whole network exactly equivariant under
    die exchange — swapping the inputs swaps the predictions.

    The topology is written once, over one rank-4 batch that holds both
    dies, and run by one executor ({!Layer.forward}): every shared layer
    runs once for the pair, and the communication layer swaps the
    batch's halves to pair each die with the other.  Training and
    Algorithm 2 run it on the autodiff tape ({!forward}); inference
    ({!predict}, {!predict_batch}) runs it over constant views of the
    same weights, which record no tape.

    The network is an images-to-images model: it maps the per-die
    feature stacks [F0, F1 : [c_in; h; w]] to predicted post-route
    congestion maps [C0, C1 : [1; h; w]] (paper: [c_in = 7] and
    [h = w = 224]; here [c_in = 8] — the Table-II seven plus the solved
    thermal-rise plane — and the resolution is configurable, see
    DESIGN.md, "Scale parameters"). *)

type t

type config = {
  in_channels : int;  (** feature channels per die (paper: 7; here 8 with the thermal plane) *)
  base_channels : int;  (** encoder width at full resolution *)
  depth : int;  (** number of 2x downsamplings (1 or 2 supported) *)
}

val default_config : config
(** [{ in_channels = 8; base_channels = 8; depth = 2 }] — the paper's
    7 feature channels plus the thermal channel. *)

val create : Dco3d_tensor.Rng.t -> config -> t
(** A network with He-initialized weights drawn from the generator.
    @raise Invalid_argument unless [depth] is 1 or 2 and both channel
    counts are positive — the same check {!load} applies to a file's
    stored architecture. *)

val forward :
  t ->
  Dco3d_autodiff.Value.t ->
  Dco3d_autodiff.Value.t ->
  Dco3d_autodiff.Value.t * Dco3d_autodiff.Value.t
(** [forward net f0 f1] predicts the two congestion maps [[1; h; w]]
    from the feature stacks [[c_in; h; w]].  Spatial dimensions must be
    divisible by [2^depth].  Differentiable in both
    the network parameters and the inputs (the latter is what Algorithm
    2 exploits: gradients flow from the congestion loss through the
    frozen network back into the feature maps).  The pair runs as one
    [[2; c; h; w]] batch: each shared conv computes one weight and one
    input gradient per backward pass. *)

val predict :
  t -> Dco3d_tensor.Tensor.t -> Dco3d_tensor.Tensor.t ->
  Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t
(** Inference on plain tensors; returns rank-2 [[h; w]] maps. *)

val predict_batch :
  t ->
  (Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t) array ->
  (Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t) array
(** [predict_batch net pairs] is {!predict} over a whole batch in one
    network pass: every die-0 stack, then every die-1 stack, packed
    into one rank-4 [[2n; c; h; w]] batch, so each conv is a single
    batched call.  Element [i] of the result is bit-identical to
    [predict net (fst pairs.(i)) (snd pairs.(i))] at every
    [DCO3D_JOBS] value — the contract the serve micro-batcher and its
    result cache depend on. *)

val params : t -> Dco3d_autodiff.Value.t list
val num_params : t -> int
val config : t -> config

val state : t -> Dco3d_tensor.Tensor.t list
val load_state : t -> Dco3d_tensor.Tensor.t list -> unit

val fingerprint : t -> string
(** Hex digest of the architecture plus every weight bit.  Two networks
    share a fingerprint iff they compute the same function; the serve
    result cache keys on it so stale entries can never survive a model
    swap. *)

exception Load_error of string
(** Raised by {!load} on a missing, truncated or corrupt file; the
    message names the offending path and the cause. *)

val save : t -> string -> unit
(** Persist configuration and weights to a file. *)

val load : ?expect:config -> string -> t
(** Restore a network written by {!save}.  When [expect] is given, a
    file whose stored architecture hyperparameters disagree with it is
    rejected up front with a message naming both configurations.  Files
    whose weight list disagrees with their own declared architecture
    (count or shapes) are likewise rejected here rather than failing
    deep inside a convolution later.
    @raise Load_error on a missing, truncated, malformed or mismatched
    file. *)
