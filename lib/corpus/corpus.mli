(** Generated multi-design PPA benchmark corpus (Open3DBench-style).

    The six Table-III generators cover the paper's designs; a corpus
    {!spec} sweeps the axes around them — cell/net count (base profile
    x scale), Rent-style topology (depth / hub fraction / locality),
    macro density, and flip-flop fraction — so the repo can evaluate on
    a standing family of designs instead of one experiment's six.
    Every spec is seeded and deterministic: the generated netlist is a
    pure function of the spec, and {!netlist_digest} gives it a stable
    content identity shared by tests, the on-disk PPA store, and the
    serving tier's corpus request class.

    The {!run_matrix} runner executes the full flow per
    (design x flow-config) cell and emits one PPA {!row} each — WL,
    WNS/TNS, power, peak/avg temperature, overflow, per-stage runtime —
    as machine-readable JSON plus a rendered table
    ([dco3d corpus --matrix]).  Rows cache through {!open_store} (the
    same {!Dco3d_framing.Framing.Store} as the route cache) keyed by
    [(netlist digest, flow config, seed)], so a whole fleet shares one
    evaluated corpus. *)

type spec = {
  sp_name : string;  (** corpus point name (also the generated design name) *)
  sp_base : string;  (** base {!Dco3d_netlist.Generator.profile} name *)
  sp_scale : float;  (** cell/IO count multiplier on the base profile *)
  sp_seed : int;
  sp_seq_fraction : float option;  (** flip-flop fraction override *)
  sp_depth : int option;  (** combinational depth override *)
  sp_hub_fraction : float option;  (** high-fanout hub share override *)
  sp_locality : float option;  (** Rent-style wiring locality override *)
  sp_macros : int option;
      (** when set, replace the base profile's macros with this many
          generated SRAM macros (the macro-density axis) *)
}

val spec :
  ?scale:float ->
  ?seed:int ->
  ?seq_fraction:float ->
  ?depth:int ->
  ?hub_fraction:float ->
  ?locality:float ->
  ?macros:int ->
  name:string ->
  string ->
  spec
(** [spec ~name base] is a corpus point on [base] (e.g. ["AES"]) with
    the given overrides.  Defaults: [scale = 1.0], [seed = 42], every
    override absent. *)

val designs : spec list
(** The default corpus: the axes swept around the Table-III bases,
    including macro-heavy and RocketCore-scale points. *)

val find : string -> spec
(** Case-insensitive lookup in {!designs}.
    @raise Not_found for unknown corpus points. *)

val scaled : float -> spec -> spec
(** Multiply a spec's scale (smoke tests and CI run tiny corpora). *)

val reseeded : int -> spec -> spec
(** Replace a spec's seed. *)

val to_profile : spec -> Dco3d_netlist.Generator.profile
(** The fully resolved generator profile (overrides applied; the
    profile is named after the spec, so two corpus points on one base
    draw distinct RNG streams). *)

val generate : spec -> Dco3d_netlist.Netlist.t
(** Build the netlist — a pure function of the spec. *)

val netlist_digest : Dco3d_netlist.Netlist.t -> string
(** Stable content digest (hex MD5) of a netlist: identical across
    processes and [DCO3D_JOBS] values for structurally identical
    netlists. *)

(** {1 Flow configs and PPA rows} *)

type variant = Pin3d | Cong

type flow_config = {
  fc_name : string;
  fc_variant : variant;
  fc_gcell : int;  (** GCell grid (nx = ny) *)
  fc_util : float;  (** floorplan target utilization *)
}

val default_configs : flow_config list
(** The standing matrix columns: the Pin-3D baseline and the
    congestion-driven variant on the default fabric. *)

val flow_config :
  ?gcell:int -> ?util:float -> ?variant:variant -> string -> flow_config
(** [flow_config name] with defaults [gcell = 48], [util = 0.55],
    [variant = Pin3d]. *)

type row = {
  r_design : string;
  r_digest : string;  (** netlist content digest *)
  r_config : string;
  r_seed : int;
  r_cells : int;
  r_nets : int;
  r_overflow : int;
  r_ovf_pct : float;
  r_wirelength_um : float;
  r_wns_ps : float;
  r_tns_ps : float;
  r_power_mw : float;
  r_peak_c : float;
  r_avg_c : float;
  r_gen_ms : float;  (** netlist generation wall time *)
  r_calib_ms : float;  (** flow-context calibration wall time *)
  r_flow_ms : float;  (** flow (place..signoff..thermal) wall time *)
}

val row_digest : row -> string
(** Hex MD5 over every metric field of a row {e except} the wall-time
    fields — the determinism identity: bit-identical reruns at any
    [DCO3D_JOBS] produce equal digests even though runtimes differ. *)

val store_key : netlist_digest:string -> seed:int -> flow_config -> string
(** The on-disk cell key, [(netlist digest, flow config, seed)] —
    computable before the flow runs. *)

(** {1 On-disk PPA store} *)

val open_store : string -> row Dco3d_framing.Framing.Store.t
(** The PPA row store rooted at a directory: magic ["DCO3D-CORPUS-V1"],
    suffix [.ppa], counters [corpus/cache_{hit,miss,evicted}], bounded
    LRU at {!Dco3d_framing.Framing.Store.default_max_entries}.  Entries are
    keyed by {!store_key}.
    @raise Unix.Unix_error if the directory cannot be created. *)

(** {1 Matrix runner} *)

val run_cell :
  ?store:row Dco3d_framing.Framing.Store.t ->
  ?route_cache:Dco3d_route.Route_cache.t ->
  spec ->
  flow_config ->
  row
(** One (design x config) cell: generate, calibrate a flow context,
    run the variant, report the PPA row.  With [?store], a previously
    evaluated cell is returned verbatim (stored runtimes included, so
    fleet replays are bit-identical) and fresh rows are persisted.
    Runs under a [corpus/cell] span. *)

val run_matrix :
  ?store:row Dco3d_framing.Framing.Store.t ->
  ?route_cache:Dco3d_route.Route_cache.t ->
  specs:spec list ->
  configs:flow_config list ->
  unit ->
  row list
(** The full matrix, row-major (specs outer, configs inner).  Cells
    run sequentially — the flow parallelizes internally, so exactly
    one level fans out. *)

val build_dataset :
  ?n_samples:int ->
  ?route_cache:Dco3d_route.Route_cache.t ->
  spec ->
  flow_config ->
  Dco3d_core.Dataset.t
(** A congestion-predictor dataset on a corpus design (the corpus
    build the serving tier exposes): floorplan + calibrated fabric
    from the flow context, then {!Dco3d_core.Dataset.build} — sharing
    [?route_cache] means many training runs share one layout corpus. *)

(** {1 Rendering} *)

val json_of_row : row -> string
(** One JSON object (single line, stable field order). *)

val write_json : string -> row list -> unit
(** One row-object per line (the [BENCH_*.json] idiom). *)

val pp_matrix : Format.formatter -> row list -> unit
(** Rendered table, one line per cell. *)
