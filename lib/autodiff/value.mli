(** Reverse-mode automatic differentiation over {!Dco3d_tensor.Tensor}.

    This is the replacement for PyTorch autograd required by Algorithm 2
    of the paper: the GNN cell spreader, the feature-map generation, the
    frozen Siamese UNet and all four losses are composed from the
    operations below, and {!backward} propagates gradients from the
    scalar total loss back to the GNN parameters (Eq. 5).

    The tape is implicit: each value records its parents and a backward
    function; {!backward} topologically sorts the graph reachable from
    the loss and accumulates gradients.  Non-differentiable components
    (the RUDY bounding-box terms of Eq. 6) plug in through {!custom},
    the equivalent of a custom [torch.autograd.Function]. *)

type t
(** A node of the computation graph. *)

val data : t -> Dco3d_tensor.Tensor.t
(** Forward value of the node. *)

val grad : t -> Dco3d_tensor.Tensor.t
(** Accumulated gradient; zeros if {!backward} has not reached it. *)

val requires_grad : t -> bool

val shape : t -> int array
val numel : t -> int

(** {1 Leaves} *)

val const : Dco3d_tensor.Tensor.t -> t
(** A constant: gradients are not tracked through it. *)

val param : Dco3d_tensor.Tensor.t -> t
(** A trainable leaf: {!backward} accumulates into its gradient, and
    optimizers mutate its data in place. *)

val scalar : float -> t
(** Constant rank-0 node. *)

(** {1 Differentiable operations} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Elementwise (Hadamard) product. *)

val div : t -> t -> t
(** Elementwise division; the denominator must be nonzero wherever the
    gradient is needed. *)

val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val relu : t -> t
val leaky_relu : float -> t -> t
val sigmoid : t -> t
val tanh_ : t -> t
val sqr : t -> t
val sqrt_ : t -> t
(** Differentiable square root; the input must be strictly positive
    wherever the gradient is needed. *)

val matmul : t -> t -> t
val sum : t -> t
(** Scalar sum of all elements. *)

val mean : t -> t
val dot : t -> t -> t

val add_bias_rows : t -> t -> t
(** [add_bias_rows x b] adds a rank-1 bias [b] (length [f]) to every row
    of a rank-2 tensor [x : [n; f]] — the GNN layer bias. *)

val conv2d : ?stride:int -> ?pad:int -> t -> weight:t -> bias:t option -> t
(** Over a rank-4 [[n; c; h; w]] batch, like {!Dco3d_tensor.Tensor.conv2d}.
    The weight and bias gradients sum the batch: per sample, then the
    samples' results added in ascending sample order. *)

val conv2d_transpose : ?stride:int -> ?pad:int -> t -> weight:t -> bias:t option -> t
(** Over a rank-4 batch; gradients as for {!conv2d}. *)

val maxpool2 : t -> t
(** 2x2, stride-2 max pooling of a rank-4 batch. *)

val concat_channels : t list -> t
(** Channel concatenation, as {!Dco3d_tensor.Tensor.concat_channels}
    (per sample for rank-4 inputs). *)

val slice_channels : t -> int -> int -> t

(** {1 Batch axis} *)

val stack : t list -> t
(** [stack [x0; ...; x_{n-1}]] is the batch [n :: shape x0] of
    same-shaped nodes; each gets its own sample's gradient. *)

val unstack : t -> t array
(** [unstack x] splits a batch into its samples, each differentiable
    back into [x]: the inverse of {!stack}. *)

val swap_halves : t -> t
(** [swap_halves x] exchanges the first and second half of an even
    batch: sample [b] of the result is sample [(b + n/2) mod n] of [x].
    The Siamese UNet's communication layer hands each die the other
    die's half this way.
    @raise Invalid_argument on an odd batch. *)

val reshape : t -> int array -> t

val columns : t -> t array
(** [columns x] splits a rank-2 tensor [[n; f]] into [f] rank-1 nodes,
    each differentiable back into [x] — used to read the GNN's
    (x, y, z) output heads. *)

val mse : t -> Dco3d_tensor.Tensor.t -> t
(** Mean squared error against a constant target. *)

val rmse_frobenius : t -> Dco3d_tensor.Tensor.t -> t
(** Eq. 4 term: [sqrt (1/HW * ||x - target||_F^2)]. *)

val add_list : t list -> t
(** Sum of same-shaped nodes. *)

val custom :
  data:Dco3d_tensor.Tensor.t ->
  parents:t list ->
  backward:(Dco3d_tensor.Tensor.t -> Dco3d_tensor.Tensor.t option list) ->
  t
(** [custom ~data ~parents ~backward] builds a node whose forward value
    was computed outside the tape.  [backward gout] must return one
    gradient (or [None]) per parent, in order, each shaped like its
    parent — the OCaml analogue of a custom PyTorch [Function], used
    for the sub-gradient RUDY backward of Eq. 6.  It runs whenever
    {!backward} reaches the node, even if only some of its parents need
    a gradient. *)

(** {1 Backward pass} *)

val backward : ?wrt:t list -> t -> unit
(** [backward ?wrt loss] seeds the scalar [loss] with gradient 1 and
    accumulates gradients into the leaves listed in [wrt] (default:
    every {!param} reachable from [loss]).  A parent's gradient is
    computed only when that parent lies on a path to a [wrt] leaf — so
    a frozen network's conv weight and bias gradients, and the input
    gradient of a conv over a constant, are never computed — and a
    param not in [wrt] is never written.  The [wrt] gradients are
    bit-identical to those of a full pass.  The counters
    [autodiff/conv_input_grads] and [autodiff/conv_weight_grads] count
    the conv gradients computed.
    @raise Invalid_argument if [loss] is not a scalar, if [wrt] lists a
    non-leaf node, or if a backward function returns the wrong number
    of gradients or a gradient whose shape differs from its parent's
    (the message names both shapes). *)

val zero_grad : t -> unit
(** Reset the accumulated gradient of a leaf (typically a {!param}). *)

(** {1 Finite-difference checking} *)

val gradient_check :
  ?eps:float -> ?tol:float -> (t -> t) -> Dco3d_tensor.Tensor.t -> bool
(** [gradient_check f x0] compares the analytic gradient of
    [fun x -> f x] at [x0] (a scalar-valued function of one tensor)
    against central finite differences on every coordinate.  Returns
    [true] when all coordinates agree within [tol] (default [1e-4],
    [eps = 1e-5]). *)
