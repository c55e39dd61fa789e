(** Batched inference programs compiled from layer descriptions.

    {!of_layer} compiles a {!Layer.t} into a flat program over rank-4
    [[n; c; h; w]] batches.  The program is the one batched executor
    for both numerics; a per-conv policy picks which convolutions run
    int8:

    - [~quantize_conv:(fun _ -> false)] is float32 inference: every
      conv is an [F_conv] running the tensor library's batched conv,
      bit-identical to applying {!Layer.forward} to each sample.
    - The default policy is int8 inference: convolutions with spatial
      extent ([kh*kw > 1], including every transposed convolution) run
      on the int8 engine with any directly following relu/leaky-relu
      fused into the requantizing epilogue.  Pointwise (1x1)
      convolutions and standalone activations stay float32 — at this
      network's sizes a 1x1 conv is dominated by per-call fixed work
      (activation quantization, image staging) that int8 MAC savings
      cannot recoup.

    Determinism: results are bit-identical at every [DCO3D_JOBS]
    value, and element [b] of a batched run is bit-identical to
    running sample [b] alone (int8 units use per-sample activation
    scales). *)

type fused_act = [ `None | `Relu | `Leaky of float ]

type qunit =
  | Q_conv of {
      transposed : bool;
      stride : int;
      pad : int;
      qw : Dco3d_tensor.Tensor.qweight;
      bias : float array option;
      act : fused_act;
    }  (** int8 conv with fused requantize + bias + activation *)
  | F_conv of {
      transposed : bool;
      stride : int;
      pad : int;
      weight : Dco3d_tensor.Tensor.t;
      bias : Dco3d_tensor.Tensor.t option;
    }  (** float32 conv (declined by the policy, or pointwise) *)
  | F_act of [ `Relu | `Leaky of float | `Sigmoid | `Tanh | `Maxpool2 ]

type t = { units : qunit list }

val of_layer : ?quantize_conv:(int -> bool) -> Layer.t -> t
(** Compile a layer (tree) into a program.  The program copies (or
    quantizes per output channel) the layer's weights at call time, so
    it captures them as of this call.

    [quantize_conv] is the quantization policy: it receives each
    convolution's 0-based index in the flattened program (transposed
    convs count too) and answers whether that conv may run int8
    (default: all may).  A conv the policy declines — or one without
    spatial extent, which is never worth quantizing — compiles to a
    float32 [F_conv] with its activation left unfused.  Callers use
    the policy to pin accuracy-critical convolutions, e.g. the
    network's entry conv, whose quantization error would otherwise
    ride through every downstream layer.
    @raise Invalid_argument on {!Layer.Linear}, which has no batched
    conv lowering. *)

val forward_batch : t -> Dco3d_tensor.Tensor.t -> Dco3d_tensor.Tensor.t
(** Run the program over a rank-4 [[n; c; h; w]] batch. *)

val dequantized : t -> t
(** The float32 network a quantized program effectively computes:
    quantized weights dequantized back to float ([q . scale]),
    float units untouched.  A loaded int8 artifact takes its float
    weights from this. *)

(** {1 Persistence} *)

type parts
(** Pure-data image of a program — no closures, safe to [Marshal]. *)

val to_parts : t -> parts

val of_parts : parts -> t
(** Rebuild a program from its persisted image, revalidating every
    quantized payload (shape agreement, scale positivity, symmetric
    byte range).
    @raise Invalid_argument on any inconsistency. *)
