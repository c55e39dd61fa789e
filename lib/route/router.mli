(** Two-tier global router — the stand-in for ICC2's global routing
    that produces the paper's ground-truth congestion labels and the
    Table-III routing columns.

    Model: each die is an [nx x ny] GCell grid with horizontal and
    vertical edge capacities (the metal stack is H-richer than V, which
    reproduces the paper's V-dominated overflow); hybrid-bond via edges
    connect the dies at every GCell.  Nets are decomposed into two-pin
    connections (Prim order over pin GCells), first routed with
    congestion-aware L/Z pattern routing, then repaired by
    negotiated-congestion rip-up-and-reroute (PathFinder-style history
    costs) with A* maze routing.

    The repair passes are parallel and deterministic: each pass
    partitions the victim nets into waves whose A* search windows
    (bounding box plus detour margin) are pairwise disjoint, routes
    each wave's nets concurrently on the domain pool with per-domain
    scratch (no shared writes — demand deltas commit afterwards in
    fixed net order), and the wave construction depends only on the
    victim set, never on [DCO3D_JOBS].  Routing results are
    bit-identical at any job count.

    Clock nets are excluded (CTS owns them). *)

type config = {
  cap_h : int;  (** horizontal tracks per GCell boundary *)
  cap_v : int;  (** vertical tracks per GCell boundary *)
  cap_via : int;  (** hybrid bonds per GCell *)
  max_iterations : int;  (** rip-up-and-reroute rounds *)
  history_weight : float;  (** PathFinder history increment *)
  overflow_penalty : float;  (** cost multiplier per unit of overuse *)
  pin_blockage : float;
  (** fraction of tracks lost to pin access in a fully pin-saturated
      GCell.  This is the dominant sub-10nm congestion mechanism: dense
      cell/pin clusters consume routing resources locally, which is
      precisely why cell spreading (2D or 3D) relieves congestion. *)
  pin_saturation : float;  (** pin density (pins/um^2) treated as saturated *)
}

val default_config : Dco3d_place.Floorplan.t -> config
(** Capacities derived from GCell geometry at a 3nm-like track pitch. *)

val calibrated_config :
  ?target_util_h:float -> ?target_util_v:float -> Dco3d_place.Placement.t ->
  config
(** Capacities provisioned for the design's own demand, the way a real
    backend sizes die and metal stack for routability: the average
    HPWL-based demand per edge is divided by a target utilization
    (defaults: H 0.62, V 0.78 — the V-poorer stack drives the paper's
    V-dominated overflow).  Call this once on the {e baseline}
    placement of a design and reuse the config for every flow variant,
    so comparisons share one routing fabric. *)

type result = {
  overflow_total : int;  (** sum of (demand - capacity)+ over all edges *)
  overflow_h : int;
  overflow_v : int;
  overflow_via : int;
  overflow_gcell_pct : float;  (** percentage of GCells with any overflow *)
  wirelength : float;  (** routed wirelength, um (via stubs included) *)
  congestion : Dco3d_tensor.Tensor.t array;
  (** per-tier [ny; nx] overflow maps — the training labels *)
  utilization : Dco3d_tensor.Tensor.t array;
  (** per-tier [ny; nx] demand/capacity maps (Fig. 6 visuals) *)
  net_length : float array;
  (** routed length per net id, um; 0 for unrouted/clock nets *)
  iterations_run : int;
  net_edges : int array array;
  (** committed edge-id path per signal net, indexed by position in
      [Netlist.signal_nets] order — what a warm start reuses *)
  history : float array;
  (** final per-edge PathFinder history — carried forward by a warm
      start so repair resumes from the negotiated costs *)
  config : config;  (** the config this result was routed under *)
}

val route :
  ?config:config ->
  ?validate:bool ->
  ?warm_start:result * Dco3d_place.Placement.t ->
  Dco3d_place.Placement.t ->
  result
(** Route all signal nets of a placement.  Deterministic, including
    across [DCO3D_JOBS] values.  [~validate:true] additionally checks
    the router's internal invariants after routing — the demand array
    must equal the per-edge sum over committed net paths, the edge→net
    incidence index must agree, and every cached edge cost must equal,
    bit for bit, its recomputation from the per-pass cost, demand and
    capacity — raising [Failure] on any violation (used by tests;
    default off).

    [~warm_start:(prev, prev_p)] routes incrementally against a prior
    result: nets whose every pin kept its GCell (comparing [prev_p] to
    the new placement) keep their path trees verbatim; only dirty nets
    are re-traced, with [prev.history] carried forward so repair
    converges in fewer passes.  Kept paths crossing newly overflowed
    edges are ripped up by the normal repair waves.  If no pin changed
    its GCell the previous result is returned as-is (it {e is} the cold
    result — capacities, sort keys and traces are all functions of the
    pin bins).  Still deterministic at any [DCO3D_JOBS]; counters
    [route/warm/reused] and [route/warm/ripped] report the split.
    @raise Invalid_argument if [prev] comes from a different netlist,
    GCell grid, or config. *)

val digest : result -> string
(** Hex content digest of a result (overflow totals, wirelength,
    per-net lengths, congestion and utilization maps).  Two results
    digest equal iff they are bit-identical — the property the
    determinism tests and the bench gate compare across job counts. *)

(** Binary min-heap keyed by float, used by the A* search.  Exposed for
    unit tests. *)
module Heap : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val is_empty : t -> bool
  val push : t -> float -> int -> unit

  val pop : t -> int
  (** Remove the smallest key and return its value (the key is not
      returned, so a pop allocates nothing).  Equal keys pop in the
      order a swap-based binary heap would pop them.
      @raise Invalid_argument on an empty heap. *)
end
