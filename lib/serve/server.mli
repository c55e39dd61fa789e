(** The [dco3d serve] daemon: a persistent process that loads a trained
    {!Dco3d_core.Predictor.t} once and answers {!Protocol} requests over
    a Unix-domain or TCP socket.

    Internally the server is a small systhread pipeline:

    {ul
    {- an {b accept loop} that hands each connection to its own handler
       thread (blocking socket IO releases the OCaml domain lock, so
       handlers are cheap);}
    {- a {b micro-batcher} that drains the bounded predict queue,
       optionally lingers ({!config.batch_linger_ms}, off by default)
       to let concurrent requests pile up, and runs one
       {!Dco3d_core.Predictor.predict_batch} forward pass for whatever
       it took — bit-identical to per-request [predict], so batching is
       invisible to clients.  Requests that arrive during a forward ride
       the next batch;}
    {- one {b job worker} for the async request class, corpus jobs:
       PPA cells (a remote Pin-3D flow is one) and corpus dataset
       builds, run one at a time in submission order, deduped
       in-flight by {!Protocol.corpus_key} and cached on disk through
       {!Dco3d_corpus.Corpus.open_store} next to the route cache, so a
       whole fleet shares one evaluated corpus.  Clients poll jobs by
       id, and the job table keeps a bounded number of finished
       statuses ({!job_retention}, {!job_retention_unpolled}).}}

    Results are cached in an {!Lru} keyed by
    [content ^ ":" ^ Predictor.fingerprint], where [content] is the hex
    MD5 the predict's body frame was verified with on receipt — equal
    to [Protocol.predict_key] of its tensors, so each request body is
    hashed exactly once.  A repeated request is answered from memory
    without touching the network, and a model swap can never serve
    stale maps.

    Backpressure: once {!config.queue_capacity} predict requests are
    queued, further ones are refused immediately with
    [Overloaded { queue_len; capacity }] instead of queuing unboundedly.
    A request whose [timeout_ms] elapses while it is still queued is
    answered [Timed_out] and never runs.

    Observability: [serve/queue_depth] gauge, [serve/batch_size]
    histogram, [serve/cache_hit]/[serve/cache_miss]/[serve/overloaded]/
    [serve/timeout]/[serve/epipe]/[serve/corpus_dedup]/
    [serve/spill_write]/[serve/digest_bytes] counters (plus the spill store's
    [serve/spill_{hit,miss,evicted}]), and
    [serve/batch] / [serve/corpus_job] spans, all
    through {!Dco3d_obs.Obs}. *)

type address =
  | Unix_path of string  (** Unix-domain socket at this filesystem path *)
  | Tcp of string * int  (** host, port; port [0] picks a free port *)

type config = {
  address : address;
  queue_capacity : int;  (** predict-queue high-water mark (default 64) *)
  max_batch : int;  (** most requests coalesced per forward pass (default 8) *)
  batch_linger_ms : float;
      (** how long the batcher waits for companions once one request is
          pending (default 0: take whatever is queued) *)
  cache_capacity : int;  (** LRU result-cache entries (default 128) *)
  spill_dir : string option;
      (** when set, evicted LRU entries are persisted here and cache
          misses read through the spill before running the forward
          pass — restarts keep the hot set (default [None]).  The spill
          is a {!Dco3d_framing.Framing.Store} ("DCO3D-SPILL-V1",
          [.spill], [serve/spill_{hit,miss,evicted}] counters), bounded
          LRU at {!Dco3d_framing.Framing.Store.default_max_entries}. *)
  route_cache_dir : string option;
      (** when set, the corpus jobs route through a
          content-addressed {!Dco3d_route.Route_cache} rooted here;
          shards given the same directory share one routed corpus
          (default [None]) *)
  corpus_dir : string option;
      (** PPA row store for corpus jobs ({!Dco3d_corpus.Corpus.open_store}).
          Defaults to [<route_cache_dir>/corpus] when a route cache is
          configured, else no persistence (default [None]) *)
  shard_id : int;
      (** reported in [Hello_reply] and stats; 0 for a standalone
          daemon, the slot index for balancer-managed shards *)
}

val default_config : address -> config

val open_spill :
  string -> (Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t) Dco3d_framing.Framing.Store.t
(** The spill store rooted at a directory, as {!start} opens
    [spill_dir]: magic ["DCO3D-SPILL-V1"], suffix [.spill], counters
    [serve/spill_{hit,miss,evicted}], default cap.
    @raise Unix.Unix_error if the directory cannot be created. *)

val bind_listen : address -> Unix.file_descr * address
(** Bind + listen on an address, unlinking a stale Unix-domain path
    first; returns the fd and the resolved address (TCP port 0 becomes
    the port the kernel picked).  Shared with the {!Balance} front. *)

type t

val start : config -> Dco3d_core.Predictor.t -> t
(** Bind, listen, and spawn the serving threads.  Returns once the
    socket is accepting connections.  Ignores SIGPIPE for the process
    so that a client vanishing mid-reply surfaces as a per-connection
    EPIPE (counted in [serve/epipe]) instead of killing the daemon.
    @raise Unix.Unix_error if the address cannot be bound. *)

val start_detached : config -> Dco3d_core.Predictor.t -> t
(** Like {!start} but binds no listening socket: the batcher, job
    workers, cache, and spill all run, and connections arrive only via
    {!adopt_connection}.  This is the shard-side server behind the
    fd-passing balancer. *)

val adopt_connection :
  t -> ?initial:Protocol.frame list -> Unix.file_descr -> bool
(** Take ownership of an already-connected socket (e.g. one received
    over [SCM_RIGHTS]) and serve it on its own handler thread.
    [initial] holds the verified frames the balancer consumed to route
    the connection (a predict's envelope and body); they are replayed
    as the first request, ahead of anything read from the socket.
    Returns [false] (closing the fd) if the server is stopping. *)

val bound_addr : t -> address
(** The address actually bound — resolves [Tcp (host, 0)] to the port
    the kernel picked.  For a detached server, echoes the config. *)

val fingerprint : t -> string
(** The model fingerprint ({!Dco3d_core.Predictor.fingerprint}) this
    server computes cache keys with. *)

val request_stop : t -> unit
(** Begin a graceful shutdown: stop accepting, nudge every serving
    thread.  Idempotent; safe to call from a signal handler's
    continuation. *)

val wait : t -> unit
(** Block until shutdown completes: live connections are shut down,
    the queued predict requests are drained (each gets its reply or
    [Timed_out]), queued corpus jobs finish, and the socket is closed
    (and unlinked, for a Unix-domain path). *)

val stop : t -> unit
(** [request_stop] then [wait]. *)

val job_retention : int
(** Answered finished jobs the job table remembers (256).  Once a
    poll has returned a job's final status, the job is dropped after
    this many later jobs have had their final status answered; polling
    a dropped id answers "unknown corpus job id".  Queued and running
    jobs are never dropped. *)

val job_retention_unpolled : int
(** The hard bound (4096): a finished job whose final status nobody
    has polled yet is dropped once this many later jobs have
    finished.  A client may therefore submit up to this many jobs
    before it polls the first. *)

val stats : t -> (string * float) list
(** The same snapshot served to [Stats] requests: queue depth, cache
    occupancy and hit/miss totals, batch counts, corpus job counts,
    uptime. *)
