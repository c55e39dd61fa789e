(** Neural-network layers as data.

    A layer is a plain description — convolutions, dense layers and
    activations composed with {!seq} — whose leaves hold the trainable
    {!Dco3d_autodiff.Value.t} parameters.  One executor walks it:
    {!forward} records it on the autodiff tape over a batch, and
    inference runs the same walk over {!frozen} weights, which records
    nothing.  Weight sharing (the Siamese property of the paper's
    predictor) is obtained by applying the same layer value to a batch
    that holds both dies. *)

type act_kind = Relu | Leaky of float | Sigmoid | Tanh | Maxpool2

type t =
  | Conv of {
      stride : int;
      pad : int;
      weight : Dco3d_autodiff.Value.t;
      bias : Dco3d_autodiff.Value.t option;
    }
  | Conv_transpose of {
      stride : int;
      pad : int;
      weight : Dco3d_autodiff.Value.t;
      bias : Dco3d_autodiff.Value.t option;
    }
  | Linear of {
      weight : Dco3d_autodiff.Value.t;
      bias : Dco3d_autodiff.Value.t option;
    }
  | Act of act_kind
  | Seq of t list  (** left-to-right composition *)

val forward : t -> Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t
(** Apply the layer on the autodiff tape.  Convolutions and pooling take
    rank-4 [[n; c; h; w]] batches, {!Linear} rank-2 [[n; in_dim]]
    (row-wise).  Sample [b] of a convolution's output is bit-identical
    to the output of sample [b] run alone, at every [DCO3D_JOBS]
    value. *)

val frozen : t -> t
(** The same layer with every parameter read through a
    {!Dco3d_autodiff.Value.const} view of its tensor: {!forward} over it
    records no tape and computes no gradient, and in-place updates of
    the parameters (optimizer steps, {!load_state}) stay visible. *)

val params : t -> Dco3d_autodiff.Value.t list
(** Trainable leaves in layer order, each weight before its bias. *)

val conv2d :
  Dco3d_tensor.Rng.t ->
  ?stride:int ->
  ?pad:int ->
  ?bias:bool ->
  in_channels:int ->
  out_channels:int ->
  ksize:int ->
  unit ->
  t
(** 2-D convolution with He-normal weight init. *)

val conv2d_transpose :
  Dco3d_tensor.Rng.t ->
  ?stride:int ->
  ?pad:int ->
  ?bias:bool ->
  in_channels:int ->
  out_channels:int ->
  ksize:int ->
  unit ->
  t
(** Transposed convolution (UNet upsampling path). *)

val pointwise :
  Dco3d_tensor.Rng.t -> in_channels:int -> out_channels:int -> unit -> t
(** 1x1 convolution — the paper's inter-die communication layer. *)

val linear :
  Dco3d_tensor.Rng.t -> ?bias:bool -> in_dim:int -> out_dim:int -> unit -> t
(** Dense layer on rank-2 inputs [[n; in_dim]] (row-wise). *)

val relu : t
val leaky_relu : float -> t
val sigmoid : t
val tanh_ : t
val maxpool2 : t

val seq : t list -> t
(** Left-to-right composition; parameters concatenate in order. *)

val num_params : t -> int
(** Total scalar parameter count. *)

(** {1 Persistence} *)

val state : t -> Dco3d_tensor.Tensor.t list
(** Snapshot of parameter tensors (copies, ordered as {!params}). *)

val load_state : t -> Dco3d_tensor.Tensor.t list -> unit
(** Restore a snapshot in place.
    @raise Invalid_argument on arity or shape mismatch. *)
