(** The Pin-3D physical-design flow emulation (Fig. 1) and the baseline
    variants of Table III.

    Stages per run: 3D global placement, placement-stage global routing
    (the "after 3D placement optimization" columns), clock-tree
    synthesis, signoff ECO sizing against the design's clock, and final
    reporting (the "after signoff optimization" columns).

    A {!context} pins everything the paper holds constant across the
    four flows of one design: the netlist, the floorplan, the routing
    fabric (capacities calibrated once on the Pin-3D baseline
    placement), the clock period, and the tool seed ("the exact same
    ICC2 seed across all experiments"). *)

type context = {
  nl : Dco3d_netlist.Netlist.t;
  fp : Dco3d_place.Floorplan.t;
  route_cfg : Dco3d_route.Router.config;
  clock_period_ps : float;
  seed : int;
  route_cache : Dco3d_route.Route_cache.t option;
      (** when present, every route the flow runs (calibration, the
          placement-stage route, BO probes) goes through the
          content-addressed cache — replays are bit-identical, so flow
          metrics are unchanged whether a route hits or misses *)
  mutable last_route :
    (Dco3d_route.Router.result * Dco3d_place.Placement.t) option;
      (** the context's most recent full-config route (seeded with the
          calibration route): successive flow runs on one context
          warm-start from it ({!Dco3d_route.Router.route}'s
          [?warm_start]) instead of cold-routing, so Algorithm-2
          ground-truth evaluations pay only for their placement delta.
          The [route/warm/{reused,ripped}] counters in the stage
          profile report the split.  BO probes (reduced repair budget)
          neither read nor update it.  The flow stores a copy of the
          placement it routed, not the one in its result. *)
  baseline : Dco3d_place.Params.t * Dco3d_place.Placement.t;
      (** the Pin-3D baseline placement the calibration ran, with the
          params it was placed with.  {!run_with_params} returns a copy
          of it when asked for exactly those params instead of placing
          again (placement is a function of the context's seed,
          netlist and floorplan plus the params).  Never handed out
          itself, so nothing outside the context can mutate it. *)
}

val make_context :
  ?seed:int ->
  ?utilization:float ->
  ?gcell_nx:int ->
  ?gcell_ny:int ->
  ?route_cache:Dco3d_route.Route_cache.t ->
  Dco3d_netlist.Netlist.t ->
  context
(** Builds the shared environment: floorplans the netlist, runs the
    Pin-3D baseline placement once to calibrate routing capacities and
    pick a clock period slightly tighter than that baseline's critical
    path (so signoff starts with violations to burn down, as in every
    Table-III design). *)

type place_stage = {
  overflow : int;
  ovf_gcell_pct : float;
  ovf_h : int;
  ovf_v : int;
  place_hpwl : float;
}
(** The "after 3D placement optimization" columns of Table III. *)

type signoff = {
  wns_ps : float;
  tns_ps : float;
  power_mw : float;
  wirelength_um : float;
  upsized_cells : int;  (** ECO repairs spent *)
  clock_skew_ps : float;
  peak_temp_c : float;
      (** hottest GCell of the steady-state thermal map solved from the
          signoff power (routed wirelength + CTS clock tree) *)
  avg_temp_c : float;  (** mean GCell temperature, deg C *)
}
(** The "after signoff optimization (end-of-flow)" columns, plus the
    thermal metrics (peak/avg temperature). *)

type result = {
  flow_name : string;
  placement : Dco3d_place.Placement.t;
  route : Dco3d_route.Router.result;
  place_stage : place_stage;
  signoff : signoff;
  params : Dco3d_place.Params.t;  (** the placement knobs that ran *)
}

val run_with_params :
  context -> name:string -> Dco3d_place.Params.t -> result
(** Place with the given Table-I knobs, then finish the flow.  For the
    baseline's params the placement is a fresh copy of
    [ctx.baseline]; the result is the same as placing again. *)

val run_with_placement :
  context -> name:string -> Dco3d_place.Placement.t -> result
(** Finish the flow from an externally produced 3D placement — the
    entry point the DCO-3D optimizer uses (its TCL-guided placement
    replaces the placement stage, everything downstream is identical). *)

val run_pin3d : context -> result
(** The Pin-3D baseline (default knobs). *)

val run_pin3d_cong : context -> result
(** "Pin-3D + Cong.": ICC2 congestion-driven placement at the highest
    effort. *)

val run_pin3d_bo :
  ?iterations:int -> ?bo_seed:int -> context -> result
(** "Pin-3D + BO": Bayesian optimization (GP + expected improvement)
    over the 16 Table-I knobs, minimizing placement-stage routed
    overflow (default 12 evaluations), then the full flow on the best
    knobs found. *)

val signoff_optimize :
  context ->
  Dco3d_netlist.Netlist.t ->
  net_length:float array ->
  net_is_3d:(int -> bool) ->
  int
(** The ECO sizing loop used inside the flows: repeatedly upsize cells
    on violating paths until timing converges or sizes run out.
    Mutates the netlist's masters in place; returns the number of
    upsized cells.  Exposed for tests. *)

val pp_result : Format.formatter -> result -> unit
(** One Table-III-style row. *)
