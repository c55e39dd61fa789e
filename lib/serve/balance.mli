(** The [dco3d balance] front process: an fd-passing balancer over a
    pool of shard daemons.

    {v
                         clients
                            │ connect + first frame
                      ┌─────▼──────┐
                      │  balancer  │  public socket (Unix path or TCP)
                      │ route+pass │
                      └─┬───┬────┬─┘
             SCM_RIGHTS │   │    │ control channel (ctl socket)
                 ┌──────▼┐ ┌▼─────┐  … one [Server.start_detached]
                 │shard 0│ │shard 1│    per slot, own batcher + LRU
                 └───┬───┘ └──┬───┘
                     └───┬────┘
                   spill dir (per shard)
    v}

    The balancer reads exactly one request frame per new connection to
    pick a shard (by model fingerprint for [Hello], by predict-key hash
    affinity within the primary model group otherwise), then passes the
    accepted descriptor — plus the consumed frame bytes, which the
    shard replays — over the control channel.  Steady-state traffic
    never touches the balancer again: zero proxying.

    Shards are supervised child processes: crashed ones are reaped and
    respawned (clients ride through via [Client.retry]'s redial), hung
    ones are killed after a ping timeout, and {!drain_shard} /
    {!rolling_restart} cycle shards gracefully — each drains its queue,
    spills its hot LRU set to disk, and exits; the respawned process
    warms back up from the spill.  That is the rolling model swap:
    update the model file, [rolling_restart], no downtime. *)

type config = {
  address : Server.address;  (** public endpoint clients connect to *)
  ctl_path : string;  (** Unix path of the shard control socket *)
  n_shards : int;
  health_period_s : float;  (** supervision cadence (default 0.25) *)
  health_timeout_s : float;  (** ping reply budget before a shard is
                                 declared hung (default 5.0) *)
  restart_backoff_s : float;  (** delay before respawning a dead shard
                                  (default 0.2) *)
}

val default_config :
  address:Server.address -> ctl_path:string -> n_shards:int -> config

val shard_jobs : n_shards:int -> int
(** The [--jobs] each of [n_shards] shard processes should run with:
    the cores this process may use ({!Dco3d_parallel.Pool.effective_jobs}:
    [DCO3D_JOBS] or [--jobs], clamped to the hardware) divided among
    the shards, at least 1.  Every shard inheriting the whole count
    would put [n_shards] pools of workers on the same cores. *)

type t

type slot_info = {
  si_idx : int;
  si_state : string;  (** "starting" | "live" | "draining" | "dead" *)
  si_pid : int;
  si_fingerprint : string;
  si_restarts : int;
}

val start : config -> argv_of:(int -> string array) -> t
(** Bind the public and control sockets and spawn the [n_shards] shard
    processes, slot [i] running the command [argv_of i] (typically
    [dco3d serve --shard-of CTL --shard-id i …]).  Returns once the
    sockets are listening; use {!await_live} to wait for shards.
    @raise Unix.Unix_error if an address cannot be bound. *)

val bound_addr : t -> Server.address
(** Public address actually bound (TCP port 0 resolved). *)

val await_live : ?timeout_s:float -> t -> int -> bool
(** [await_live t n] blocks until at least [n] shards are live (false
    on timeout, default 60 s). *)

val n_live : t -> int

val slots : t -> slot_info list
(** Snapshot of every slot, in index order. *)

val drain_shard : t -> int -> unit
(** Ask one shard to drain and exit (its routed connections finish,
    its hot set spills); the health loop respawns it.  No-op unless
    the slot is live.  @raise Invalid_argument on a bad index. *)

val rolling_restart : ?timeout_s:float -> t -> bool
(** Drain-and-respawn every shard, one at a time, waiting for each to
    come back live before touching the next — a zero-downtime model
    swap.  False if any slot missed the per-slot [timeout_s] (default
    120 s). *)

val request_stop : t -> unit
(** Begin shutdown: stop accepting and supervising.  Idempotent. *)

val wait : t -> unit
(** Block until shutdown completes: every shard is asked to drain,
    reaped (escalating to SIGKILL after 30 s), and both sockets are
    closed and unlinked. *)

val stop : t -> unit
(** [request_stop] then [wait]. *)
