(** The pseudo-3D global placer — our stand-in for ICC2's
    [place_opt] stage inside Pin-3D.

    Pipeline (FastPlace-style):
    + min-cut tier bipartition ({!Partition}),
    + joint quadratic placement of (x, y) over both tiers (conjugate
      gradient on a hybrid clique/star Laplacian with fixed IO pads),
    + alternated density-driven spreading per tier (utilization-
      proportional bin stretching) and anchored re-solves,
    + row legalization per tier.

    Every Table-I knob ({!Params.t}) is interpreted here: density
    targets bound the spreader, congestion knobs inflate cells in
    pin-dense regions (trading wirelength for congestion relief),
    efforts buy quadratic-placement rounds and spreading iterations. *)

val quadratic_place :
  ?anchor_weight:float ->
  ?anchors:(float array * float array) ->
  ?cg_iters:int ->
  Placement.t ->
  unit
(** Solve the joint QP and write cell (x, y) in place.  [anchors]
    attaches pseudo-nets of weight [anchor_weight] pulling each cell to
    the given coordinates (the FastPlace feedback loop). *)

val spread :
  ?iterations:int ->
  ?damping:float ->
  target_density:float ->
  inflation:float array option ->
  Placement.t ->
  unit
(** Per-tier utilization-proportional bin stretching until the peak bin
    utilization approaches [target_density].  [inflation] scales each
    cell's area when computing utilization (congestion-driven cell
    inflation); [None] means no inflation. *)

val legalize : ?max_row_search:int -> Placement.t -> unit
(** Snap cells to standard-cell rows per tier and remove horizontal
    overlap (greedy left-to-right packing, spilling into neighbouring
    rows when a row overfills). *)

val legal_check : Placement.t -> (unit, string) result
(** Verify row alignment and the absence of same-tier overlaps
    (macros exempt from row alignment). *)

val global_place :
  seed:int ->
  params:Params.t ->
  Dco3d_netlist.Netlist.t ->
  Floorplan.t ->
  Placement.t
(** Run the full pipeline and return a legalized 3D global placement.
    Deterministic in [(seed, params, netlist)]. *)

val relieve_hot_nets :
  ?quantile:float -> ?fraction:float -> Placement.t -> int
(** One pass of hotspot relief: relocate whole single-GCell nets from
    the top-[1-quantile] wire-demand bins into a cooler neighbouring
    bin (see the implementation comment for why this is the
    near-zero-wirelength congestion move).  Returns the number of nets
    moved.  Used by the congestion-driven placement mode and by the
    tests. *)

val perturb :
  ?seed:int -> ?fraction:float -> ?max_dist:float -> Placement.t ->
  Placement.t
(** A fresh placement with a seeded random [fraction] (default 0.05)
    of the standard cells moved by up to [max_dist] um in each axis
    (default: half a GCell width), clamped to the die; macros stay
    put.  Deterministic in [(seed, placement)].  Models the small
    placement deltas between consecutive routing runs — the
    warm-start router and its benchmarks exercise exactly this. *)
