(** The differentiable objectives of Algorithm 2 (sections IV-B..IV-E)
    plus the TaiWei-style thermal penalty. *)

val congestion :
  Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t
(** Section IV-B: the congestion penalty of the two predicted maps,
    "calculated using Eq. 4" — the mean over dies of the
    root-mean-squared Frobenius norm of the predicted congestion
    (target zero). *)

type cut_graph
(** The constants of {!cutsize} for one connectivity graph: the
    {!Dco3d_graph.Gcn.graph} (with its transpose) and the total edge
    weight [1'A1].  Build it once per graph with {!cut_graph}. *)

val cut_graph : Dco3d_graph.Csr.t -> cut_graph

val cutsize : graph:cut_graph -> Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t
(** Eq. 7 with soft tier probabilities: [cut(T,B)/deg(T) +
    cut(T,B)/deg(B)] where, over the weighted cell-connectivity graph
    [adj] of [graph = cut_graph adj],
    [cut = sum_ij a_ij (z_i(1-z_j) + z_j(1-z_i)) / 2],
    [deg(T) = sum_ij a_ij z_i z_j], [deg(B)] symmetric.  [z] is the
    rank-1 tier-probability vector.  An edgeless graph gives 0. *)

val overlap :
  ?target:float ->
  Dco3d_autodiff.Value.t ->
  Dco3d_autodiff.Value.t ->
  Dco3d_autodiff.Value.t
(** Sections IV-D (Eq. 8-10): the smoothed density penalty.  We penalize
    the soft per-die cell-density channels above [target] (default
    0.85): [mean (relu (density - target))^2] summed over dies.  The
    bilinear tent kernel of the soft maps plays the role of the
    bell-shaped potential [p_x p_y] — both are separable, piecewise
    polynomial bumps with compact support. *)

val displacement :
  x:Dco3d_autodiff.Value.t ->
  y:Dco3d_autodiff.Value.t ->
  x0:Dco3d_tensor.Tensor.t ->
  y0:Dco3d_tensor.Tensor.t ->
  Dco3d_autodiff.Value.t
(** Eq. 11, normalized per cell: [mean ((x - x0)^2 + (y - y0)^2)]
    in um^2. *)

val thermal :
  grid:Dco3d_tensor.Tensor.t ->
  cell_mw:float array ->
  placement:Dco3d_place.Placement.t ->
  nx:int ->
  ny:int ->
  x:Dco3d_autodiff.Value.t ->
  y:Dco3d_autodiff.Value.t ->
  z:Dco3d_autodiff.Value.t ->
  Dco3d_autodiff.Value.t
(** Thermal penalty over a {e frozen} temperature-rise field [grid]
    ([[2; ny; nx]], from {!Dco3d_thermal.Thermal}):
    [sum_c (p_c/P) ((1-z_c) T_bot(x_c,y_c)^2 + z_c T_top(x_c,y_c)^2) / 2]
    with bilinear interpolation, where [P] is the total movable-cell
    power — i.e. the power-weighted mean of the squared rise, O(K^2)
    regardless of design size.  The rise is squared so the force on a
    cell scales with how hot its bin already is — the hottest bins
    shed power first, which is what moves the {e peak} temperature (a
    linear term pulls as hard on mildly-warm cells and mostly reshuffles
    the average).  Macros (immovable) contribute neither value nor
    gradient.  The gradient moves hot, high-power cells down the
    lateral temperature gradient and flips them toward the cooler
    tier; the caller re-solves the field from the updated positions
    each iteration (alternating minimization) instead of
    differentiating through the CG solve. *)
