(** Dense row-major float tensors.

    This module is the numerical substrate for the whole reproduction:
    congestion maps are rank-2 tensors [[h; w]], per-die feature stacks
    are rank-3 tensors [[c; h; w]] (channels first, matching the paper's
    7-channel inputs), convolution weights are rank-4 [[co; ci; kh; kw]],
    GNN activations are rank-2 [[n; f]], and the network's activations
    are rank-4 batches [[n; c; h; w]].  All neural-network kernels
    (convolution, transposed convolution, pooling) live here so that
    {!module:Dco3d_autodiff} can wrap each forward kernel with its
    hand-written adjoint. *)

type t = private { shape : int array; data : float array }
(** A tensor.  [data] is row-major; the type is private so that all
    construction goes through the checked builders below, but kernels
    may still read fields directly. *)

(** {1 Construction} *)

val make : int array -> float array -> t
(** [make shape data] checks that [data] has exactly the implied number
    of elements.  [data] is owned by the result (not copied): the caller
    must not mutate it afterwards except through the tensor.  [shape] is
    copied defensively. *)

val zeros : int array -> t
val ones : int array -> t
val full : int array -> float -> t

val init : int array -> (int array -> float) -> t
(** [init shape f] tabulates [f] over multi-indices in row-major order. *)

val scalar : float -> t
(** Rank-0 tensor. *)

val of_array1 : float array -> t
(** Rank-1 view of a fresh copy of the array. *)

val of_array2 : float array array -> t
(** Rank-2 tensor from rows; all rows must share a length. *)

val copy : t -> t

val rand_uniform : Rng.t -> ?lo:float -> ?hi:float -> int array -> t
val randn : Rng.t -> ?mu:float -> ?sigma:float -> int array -> t

val kaiming : Rng.t -> fan_in:int -> int array -> t
(** He-normal initialization: stddev [sqrt (2 / fan_in)]. *)

(** {1 Shape accessors} *)

val shape : t -> int array
val numel : t -> int
val rank : t -> int
val dim : t -> int -> int
val same_shape : t -> t -> bool
val reshape : t -> int array -> t
(** [reshape t shape] returns a view with a new shape; the element count
    must be preserved.

    {b Warning: the result aliases [t]'s data array} — writing through
    either tensor is visible in the other.  This is intentional (the
    autodiff layer reshapes large activations without copying), but it
    means [reshape] does {e not} confer ownership the way {!make} /
    {!copy} results do.  Use {!reshape_copy} when an independently owned
    tensor is required.  The [shape] array itself is copied
    defensively. *)

val reshape_copy : t -> int array -> t
(** Like {!reshape} but the result owns a fresh copy of the data: later
    writes to [t] never leak into the result, and vice versa. *)

(** {1 Element access} *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit
val get_flat : t -> int -> float
val set_flat : t -> int -> float -> unit

val get2 : t -> int -> int -> float
(** Rank-2 convenience accessor. *)

val set2 : t -> int -> int -> float -> unit

val get3 : t -> int -> int -> int -> float
(** Rank-3 convenience accessor. *)

val set3 : t -> int -> int -> int -> float -> unit

(** {1 Elementwise operations} *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val iteri_flat : (int -> float -> unit) -> t -> unit

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val relu : t -> t

val leaky_relu : float -> t -> t
(** [leaky_relu slope t]: [x] where [x > 0.], else [slope *. x]. *)

val sigmoid : t -> t
val tanh_ : t -> t
val sqrt_ : t -> t
val sqr : t -> t
val clip : lo:float -> hi:float -> t -> t

val axpy : alpha:float -> t -> t -> unit
(** [axpy ~alpha x y] performs [y <- alpha*x + y] in place. *)

val fill : t -> float -> unit

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float
val max_elt : t -> float
val min_elt : t -> float
val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
val dot : t -> t -> float
val frobenius : t -> float
(** L2 norm of all elements. *)

(** {1 Linear algebra (rank 2)} *)

val matmul : t -> t -> t
(** [[m; k]] x [[k; n]] -> [[m; n]]. *)

val transpose2 : t -> t

val matvec : t -> t -> t
(** [[m; k]] x [[k]] -> [[m]]. *)

(** {1 The gather-GEMM kernel}

    {!matmul} and every convolution lowering run on one kernel that
    multiplies by a [B] it never materializes: element [B(p, j)] is
    read from a source of [h x w] planes through [(off, y, x)]
    descriptors, one triple per row [p] and per column [j]. *)

val gemm_gather :
  ?off:int -> m:int -> k:int -> n:int -> h:int -> w:int -> float array ->
  int array -> int array -> float array -> float array -> unit
(** [gemm_gather ?off ~m ~k ~n ~h ~w src rows cols a out] adds [A . B]
    to the row-major [m x n] matrix that starts at [out.(off)] ([off]
    defaults to [0]), for [a] row-major [m x k] and
    [B(p, j) = src.(off_p + off_j + y * w + x)] with
    [y = y_p + y_j], [x = x_p + x_j] when [0 <= y < h] and
    [0 <= x < w], else [0.]; [rows] holds [(off_p, y_p, x_p)] at
    [3p .. 3p+2] and [cols] holds [(off_j, y_j, x_j)] at [3j .. 3j+2].
    Every output is one chain over [p] ascending from [out]'s value,
    with separately rounded multiplies and adds, so the bits equal the
    naive loop's at any [DCO3D_JOBS].
    @raise Invalid_argument if a dimension or [off] is negative, [a],
    [out] (from [off]), [rows] or [cols] is shorter than the shape
    implies, or (when
    [m, k, n, h, w > 0]) an offset lies outside [\[0, length src)], a
    [y] or [x] outside [\[-2^58, 2^58\]], or
    [max off_p + max off_j + h * w - 1] past the end of [src] —
    checked before any element is read, without overflow. *)

val gemm_isa : unit -> string
(** The kernel variant this process dispatches to: ["avx2"] or
    ["baseline"], the widest the CPU supports (chosen once,
    at start-up; only ["baseline"] off x86-64).  Every variant gives
    the same bits. *)

val gemm_isa_variants : string list
(** Every variant compiled into this build, widest first. *)

val with_gemm_isa : string -> (unit -> 'a) -> 'a option
(** For tests only: [with_gemm_isa v f] runs [f ()] with every GEMM
    dispatched to variant [v] and restores the previous one after;
    [None] (and [f] not run) if [v] is unknown or this CPU lacks it.
    Not for use while another domain runs kernels. *)

(** {1 Convolution kernels (rank-4 activations [[n; c; h; w]])}

    Every network activation is a batch: [n] samples of [c] channels
    on an [h x w] grid, a single sample being [n = 1].  Each kernel
    below has exactly this one rank-4 entry.

    Every convolution lowers onto {!gemm_gather}, which reads the
    im2col matrix straight from the image.  Each output element is one
    chain of separately rounded multiplies and adds from [0.] over its
    in-image terms, in a fixed order per pass (listed in [tensor.ml]),
    with the bias added last, so the bits are the same at every
    [DCO3D_JOBS].  Sample [b] of a forward or input-gradient result is
    bit-identical to that sample run alone (its own GEMM, or extra
    GEMM columns in the strided phases), and the batched result is
    written in place, with no second output-sized array; the weight
    gradient computes one chain per sample and adds the samples'
    results in ascending order.

    Every convolution entry below checks its shapes (input channels
    against the weight, bias length against the output channels, a
    gradient against the output shape the input and weight imply) and
    its stride ([>= 1]) and padding ([>= 0]) before touching any data,
    and raises [Invalid_argument] naming the mismatched shapes.  An
    empty batch ([n = 0]) gives an empty result of the implied
    shape. *)

val conv2d : ?stride:int -> ?pad:int -> t -> weight:t -> bias:t option -> t
(** [conv2d x ~weight ~bias] with [x : [n; ci; h; w]],
    [weight : [co; ci; kh; kw]], [bias : [co]] option gives
    [[n; co; oh; ow]], lowered to a single gather-GEMM with
    [n * oh * ow] columns. *)

val conv2d_backward_input :
  ?stride:int -> ?pad:int -> input_shape:int array -> weight:t -> t -> t
(** Adjoint of {!conv2d} with respect to its input: maps the gradient of
    the output ([[n; co; oh; ow]]) back to the gradient of the input
    ([input_shape = [|n; ci; h; w|]]). *)

val conv2d_backward_weight :
  ?stride:int -> ?pad:int -> input:t -> weight_shape:int array -> t -> t
(** Adjoint of {!conv2d} with respect to the weight, summed over the
    batch: one GEMM per sample, whose results are added in ascending
    sample order. *)

val conv2d_transpose :
  ?stride:int -> ?pad:int -> t -> weight:t -> bias:t option -> t
(** Transposed convolution (a.k.a. deconvolution), used by the UNet
    decoder.  [x : [n; ci; h; w]], [weight : [ci; co; kh; kw]]; output
    [[n; co; oh; ow]] has spatial size [(h-1)*stride - 2*pad + kh],
    lowered to [stride²] phase GEMMs, one per output residue class,
    each over all [n] samples' columns. *)

val maxpool2 : t -> t * int array
(** 2x2, stride-2 max pooling of [[n; c; h; w]].  Also returns the flat
    argmax index into the input for each output element (for the
    backward pass).  Requires even spatial dimensions. *)

val maxpool2_backward : input_shape:int array -> int array -> t -> t
(** [maxpool2_backward ~input_shape argmax gout] scatters [gout] back
    through the recorded argmax indices. *)

(** {1 Batch axis} *)

val stack : t array -> t
(** [stack [|t0; ...; t_{n-1}|]] concatenates [n] same-shaped tensors
    into a tensor of shape [n :: shape t0] (fresh storage).
    @raise Invalid_argument on an empty array or a shape mismatch. *)

val unstack : t -> t array
(** Inverse of {!stack}: split the leading axis into [n] independently
    owned tensors. *)

(** {1 Map utilities (rank 2, 3 and 4)} *)

val resize_nearest : t -> int -> int -> t
(** [resize_nearest m h w] resizes a rank-2 map with nearest-neighbour
    interpolation, preserving pixel magnitudes (paper, section
    III-B3). *)

val concat_channels : t list -> t
(** Concatenate along the channel axis.  Rank-3 [[c; h; w]] inputs
    (rank-2 ones count as single channels) give a rank-3 result;
    rank-4 [[n; c; h; w]] inputs concatenate each sample's channels and
    give a rank-4 result.  Spatial (and batch) dimensions must agree,
    and rank-4 inputs cannot mix with lower ranks. *)

val slice_channels : t -> int -> int -> t
(** [slice_channels x lo n] extracts channels [lo..lo+n-1] as a copy:
    of every sample of a rank-4 [x] (rank-4 result), else of a rank-3
    [x] (a rank-2 map is one channel). *)

val channel : t -> int -> t
(** [channel x c] extracts channel [c] of a rank-3 tensor as a rank-2
    map (copy). *)

val rot90 : t -> t
(** Rotate a rank-2 map counter-clockwise by 90 degrees; for rank-3,
    rotates every channel. *)

val flip_h : t -> t
(** Mirror the last (width) axis. *)

(** {1 Comparison and printing} *)

val approx_equal : ?eps:float -> t -> t -> bool
(** [approx_equal ~eps a b]: same shape and every element pair within
    [eps] (default [1e-9]).  A NaN on either side fails, NaN against
    NaN included. *)

val pp : Format.formatter -> t -> unit
