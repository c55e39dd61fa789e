(** Content-addressed disk cache of full routing results.

    Routing is a pure function of the netlist structure, the
    GCell-binned placement, the grid geometry and the router config —
    every placement read in {!Router.route} goes through
    [Floorplan.gcell_of] — so a result is keyed by
    [MD5(netlist digest x binned placement x config)] and a hit replays
    it {e bit-identically}: [Router.digest] of a replay equals the cold
    route's.  Sub-GCell placement jitter maps to the same key.

    Entries live in a {!Dco3d_framing.Framing.Store} (magic
    ["DCO3D-ROUTE-V1"], suffix [.route], counters
    [route/cache_{hit,miss,evicted}]), which owns the framing, the
    stored-key recheck, corruption handling and the LRU bound; shard
    daemons, parallel dataset workers and repeated sweeps can all
    share one cache directory.  Entries written by earlier releases,
    which stored each tensor as a [(shape, data)] pair, still decode;
    every tensor of a hit is checked against its shape, and an entry
    that fails the check is a miss. *)

type t = Router.result Dco3d_framing.Framing.Store.t
(** Use {!Dco3d_framing.Framing.Store.dir} / [count] / [max_entries]
    for diagnostics. *)

val create : ?max_entries:int -> string -> t
(** [create dir] opens a cache rooted at [dir], creating it (and
    parents) if missing.  Bounded at [max_entries] (default
    {!Dco3d_framing.Framing.Store.default_max_entries}) by LRU
    eviction after each write.
    @raise Unix.Unix_error if the directory cannot be created. *)

val key : config:Router.config -> Dco3d_place.Placement.t -> string
(** The content key (hex MD5) a placement routes under — exposed for
    tests and diagnostics. *)

val find : t -> config:Router.config -> Dco3d_place.Placement.t ->
  Router.result option
(** Cached result for this (netlist, binned placement, config), if
    present and intact. *)

val find_or_route :
  ?cache:t ->
  ?validate:bool ->
  ?warm_start:Router.result * Dco3d_place.Placement.t ->
  config:Router.config ->
  Dco3d_place.Placement.t ->
  Router.result
(** Cache-through routing: look up, route on miss, persist the fresh
    result (best-effort).  With [?cache] absent this is exactly
    [Router.route ~config].  [?warm_start] is forwarded to
    {!Router.route} on a miss; a warm-started result is {e not}
    persisted — it depends on the predecessor chain rather than the
    content key alone, and caching it would break the cache's
    cold-replay bit-identity contract. *)
