(** Small dense / matrix-free linear algebra.

    Used by the quadratic placer (conjugate gradient on the star-model
    Laplacian) and by the Gaussian-process regressor behind the
    Pin-3D+BO baseline (Cholesky factorization of the kernel matrix). *)

val cholesky : Tensor.t -> Tensor.t
(** [cholesky a] returns the lower-triangular [l] with [l l^T = a] for a
    symmetric positive-definite rank-2 tensor.
    @raise Failure if [a] is not positive definite. *)

val solve_lower : Tensor.t -> Tensor.t -> Tensor.t
(** [solve_lower l b] solves [l x = b] by forward substitution
    ([l] lower-triangular, [b] rank 1). *)

val solve_upper : Tensor.t -> Tensor.t -> Tensor.t
(** [solve_upper u b] solves [u x = b] by back substitution
    ([u] upper-triangular, [b] rank 1). *)

val solve_lower_transposed : Tensor.t -> Tensor.t -> Tensor.t
(** [solve_lower_transposed l b] solves [l^T x = b] by back
    substitution, reading [l] (lower-triangular) column-wise instead of
    materializing its transpose.  Equivalent to
    [solve_upper (Tensor.transpose2 l) b] without the allocation. *)

val cholesky_solve : Tensor.t -> Tensor.t -> Tensor.t
(** [cholesky_solve l b] solves [a x = b] given [l = cholesky a].
    Uses {!solve_lower} then {!solve_lower_transposed}; no transpose is
    allocated, so repeated small solves (thermal boundary blocks, the
    BO regressor) stay allocation-light. *)

type cg_status =
  | Converged  (** residual dropped below the tolerance *)
  | Max_iter  (** iteration budget exhausted, residual still above tol *)
  | Breakdown
      (** [p·Ap <= 0] — the operator is not positive definite along the
          current search direction; the iterate up to that point is
          returned *)

val string_of_cg_status : cg_status -> string

val conjugate_gradient :
  ?max_iter:int ->
  ?tol:float ->
  ?iterations_out:int ref ->
  ?status_out:cg_status ref ->
  (float array -> float array -> unit) ->
  float array ->
  float array ->
  float array
(** [conjugate_gradient matvec b x0] solves the SPD system
    [a x = b] where [a] is only available as a matrix-vector product:
    [matvec src dst] must overwrite every element of [dst] with
    [a src], and must not modify [src].  The solver owns [src] and
    [dst] (two distinct arrays of length [Array.length b], allocated
    once per solve), so [matvec] itself need not allocate.
    Returns the (possibly early-stopped) iterate.  [x0] is the starting
    point and is not mutated.  Defaults: [max_iter = 200],
    [tol = 1e-8] on the residual norm relative to [||b||].  When
    [iterations_out] is given, the number of iterations actually run is
    stored into it (callers use this to export solver telemetry); a
    breakdown after [k] steps reports [k], not [max_iter].  When
    [status_out] is given, it receives {!Converged}, {!Max_iter}, or
    {!Breakdown} so callers can distinguish "lost positive-definiteness
    after 3 iters" from "ran out of iterations". *)
