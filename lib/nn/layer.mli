(** Neural-network layers as data.

    A layer is a plain description — convolutions, dense layers and
    activations composed with {!seq} — whose leaves hold the trainable
    {!Dco3d_autodiff.Value.t} parameters.  Two interpreters walk it:
    {!forward} records it on the autodiff tape, and {!forward_batch}
    runs it over a batch of plain tensors for inference.  Weight sharing (the Siamese property of the
    paper's predictor) is obtained simply by applying the same layer
    value to several inputs. *)

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
(** Apply the layer on the autodiff tape.  Convolutions take rank-3
    [[c; h; w]] inputs, {!Linear} rank-2 [[n; in_dim]] (row-wise). *)

val forward_batch : t -> Dco3d_tensor.Tensor.t -> Dco3d_tensor.Tensor.t
(** Apply the layer to a rank-4 [[n; c; h; w]] batch, off the tape,
    reading the current weights in place.  Element [b] of the result is
    bit-identical to {!forward} on sample [b] alone, at every
    [DCO3D_JOBS] value.
    @raise Invalid_argument on {!Linear}, which has no batched
    lowering. *)

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
