(** Differentiable Congestion Optimization — Algorithm 2 and Fig. 4.

    Starting from a 3D global placement, a GNN ({!Spreader}) predicts
    updated soft cell locations; these are rendered into differentiable
    feature maps ({!Soft_maps}), pushed through the {e frozen} trained
    congestion predictor, and the weighted sum of the congestion,
    overlap, cutsize and displacement losses ({!Losses}) is
    backpropagated through the whole chain (Eq. 5) to update the GNN by
    gradient descent.  After convergence the soft tier probabilities
    are hardened ([z >= 0.5]) and the placement is re-legalized. *)

type config = {
  iterations : int;
  lr : float;
  hidden : int;  (** GCN hidden width *)
  max_move_gcells : float;  (** move bound, in GCell pitches *)
  alpha : float;  (** displacement weight *)
  beta : float;  (** overlap weight *)
  gamma : float;  (** cutsize weight *)
  delta : float;  (** congestion weight *)
  density_target : float;  (** overlap-loss density ceiling *)
  seed : int;
  freeze_z : bool;
  (** ablation switch: keep every cell on its incoming die, reducing
      DCO-3D to a purely 2D differentiable spreader (the paper's
      contribution #2 is exactly the freedom this removes) *)
  epsilon : float;
  (** thermal-penalty weight (default 0 = thermally blind).  When
      positive, every iteration re-solves the steady-state temperature
      field ({!Dco3d_thermal.Thermal}) from the current soft positions
      — frozen per-cell power, soft tier split — feeds it to the UNet
      as the 8th feature channel, and adds
      [epsilon * Losses.thermal] so hot, high-power cells move down
      the lateral temperature gradient and toward the cooler die.
      The no-progress fallback (keep the incoming placement when
      predicted congestion is flat) is disabled for thermal runs,
      where congestion may legitimately be traded for temperature. *)
}

val default_config : config
(** 60 iterations, lr 3e-3, hidden 32, max move 1.5 GCells,
    (alpha, beta, gamma, delta, epsilon) = (1, 30, 1.5, 8, 0), density
    target 0.85.  Optimization stops early once the predicted
    congestion has dropped 25 % below its starting value — a trust
    region that keeps the GNN inside the (frozen, learned) predictor's
    reliable neighbourhood. *)

type iter_stats = {
  total : float;
  disp : float;
  ovlp : float;
  cut : float;
  cong : float;
}

type report = {
  stats : iter_stats array;  (** per-iteration loss components *)
  predicted_cong_start : float;
  predicted_cong_end : float;
  cut_start : int;  (** hard cut size before optimization *)
  cut_end : int;
  mean_displacement : float;  (** um, vs the incoming placement *)
  tier_moves : int;  (** cells that changed die *)
}

val optimize :
  ?config:config ->
  predictor:Predictor.t ->
  Dco3d_place.Placement.t ->
  Dco3d_place.Placement.t * report
(** Run Algorithm 2 on a placement (not mutated); the result is
    legalized.  Deterministic in [(config.seed, predictor, input)]. *)

val resize_value : Dco3d_autodiff.Value.t -> int -> int -> Dco3d_autodiff.Value.t
(** Differentiable nearest-neighbour resize of a [[c; h; w]] value
    (Fig. 3's resolution adaptation, on the tape). *)

val feature_scales : h:int -> w:int -> Dco3d_tensor.Tensor.t
(** The constant [[8; h; w]] tensor of per-channel reciprocal scales
    ({!Dco3d_congestion.Feature_maps.default_scales}) that
    {!normalize_features} multiplies by; {!optimize} builds it once. *)

val normalize_features :
  Dco3d_tensor.Tensor.t -> Dco3d_autodiff.Value.t -> Dco3d_autodiff.Value.t
(** [normalize_features (feature_scales ~h ~w) v]: per-channel
    normalization of a [[8; h; w]] value matching
    {!Dco3d_congestion.Feature_maps.normalize}, on the tape.
    @raise Invalid_argument when [v] and the scales differ in shape. *)

type cool_report = {
  loss_start : float;  (** thermal penalty at the incoming placement *)
  loss_end : float;  (** penalty after the last descent step *)
  solves : int;  (** steady-state solves performed (= iterations) *)
}

val cool :
  ?iterations:int ->
  ?step_gcells:float ->
  ?step_z:float ->
  Dco3d_place.Placement.t ->
  Dco3d_place.Placement.t * cool_report
(** Thermal spreading by alternating minimization on the thermal
    penalty alone: each iteration re-solves the steady-state field from
    the current soft positions ({!Dco3d_thermal.Thermal.solve}) and
    takes one gradient step of the frozen-field penalty directly on
    the cell positions and tier probabilities (no GNN in the path).
    Steps are infinity-norm normalized — the most-pushed cell moves
    [step_gcells] GCells laterally (default 0.5) and at most [step_z]
    (default 0.1) in tier probability per iteration — so the schedule
    is scale-free in design size and absolute power.  Macros do not
    move.  The result is legalized.  Deterministic in the input. *)
