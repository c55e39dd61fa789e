(** The paper's 3D congestion predictor: a Siamese UNet (Fig. 3).

    Both dies of the face-to-face 3D IC are processed by the {e same}
    encoder and decoder (shared weights — the dies are interchangeable),
    while a pointwise-convolution {e communication layer} at the
    bottleneck merges the two encoder outputs and hands each die's
    decoder a view of the other die.  We realize the merge as shared
    self/cross 1x1 convolutions ([out_d = act (self b_d + cross
    b_other)]), which keeps the whole network exactly equivariant under
    die exchange — swapping the inputs swaps the predictions.

    The topology is written once and run two ways: on the autodiff
    tape ({!forward}), and over one compiled {!Quant} program per
    layer ({!predict_batch}, float32 or int8).

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
    counts are positive — the same check {!load} and
    {!load_quantized} apply to a file's stored architecture. *)

val forward :
  t ->
  Dco3d_autodiff.Value.t ->
  Dco3d_autodiff.Value.t ->
  Dco3d_autodiff.Value.t * Dco3d_autodiff.Value.t
(** [forward net f0 f1] predicts the two congestion maps.  Spatial
    dimensions must be divisible by [2^depth].  Differentiable in both
    the network parameters and the inputs (the latter is what Algorithm
    2 exploits: gradients flow from the congestion loss through the
    frozen network back into the feature maps). *)

val predict :
  t -> Dco3d_tensor.Tensor.t -> Dco3d_tensor.Tensor.t ->
  Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t
(** Inference on plain tensors; returns rank-2 [[h; w]] maps. *)

val predict_batch :
  ?numeric:[ `F32 | `I8 ] ->
  t ->
  (Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t) array ->
  (Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t) array
(** [predict_batch net pairs] is {!predict} over a whole batch in one
    network pass: the [(f0, f1)] stacks are packed into rank-4
    [[n; c; h; w]] tensors and every layer runs as its {!Quant}
    program, so each conv is a single batched call.

    [~numeric:`F32] (the default) compiles every layer with no int8
    unit on each call.  Element [i] of the result is bit-identical to
    [predict net (fst pairs.(i)) (snd pairs.(i))] at every
    [DCO3D_JOBS] value — the contract the serve micro-batcher and its
    result cache depend on.

    [~numeric:`I8] runs the memoized int8 compilation (see
    {!quantized}) instead: spatial convs execute on the quantized
    engine, within a small tolerance of the float path (the
    golden-parity harness bounds the divergence).  Results are
    bit-identical at every [DCO3D_JOBS] value, and per-sample
    activation scales make element [i] independent of its
    batchmates. *)

(** {1 Quantized int8 inference} *)

type qnet
(** An int8 compilation of a network: one {!Quant} program per layer.
    Spatial convolutions are quantized per output channel with fused
    requantize/bias/activation epilogues, except the level-0 encoder's
    second conv, which produces the full-resolution skip tensor and
    stays float32; pointwise layers stay float32 too. *)

val quantized : t -> qnet
(** The network's int8 compilation, made once per weight state; the
    cache is invalidated by {!load_state}. *)

val qnet_fingerprint : qnet -> string
(** Hex digest of the architecture plus every quantized bit (packed
    int8 payloads, scales, float fallback weights), domain-separated
    from {!fingerprint} — an int8 and a float model can never share a
    cache key. *)

val save_quantized : qnet -> string -> unit
(** Persist a standalone int8 artifact (magic + digest framing). *)

val load_quantized : string -> t
(** Restore a network from an int8 artifact.  The returned network's
    int8 path serves the artifact exactly ({!quantized} is pre-seeded);
    its float path carries the dequantized ("fake-quantized") weights —
    the function the int8 path computes up to integer rounding.
    @raise Load_error on a missing, truncated, corrupt (digest
    mismatch) or inconsistent file. *)

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
