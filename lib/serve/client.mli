(** Blocking client for the [dco3d serve] daemon.

    One {!t} wraps one connection; requests on it are answered in
    order.  Not thread-safe — give each concurrent caller (e.g. each
    pool worker in the e2e test) its own connection. *)

type t

exception Error of string
(** Unexpected reply shape, [Server_error], a failed corpus job, or a
    reply framed in another wire version (the message names both). *)

exception Lost_connection
(** The peer vanished mid-request (EOF, EPIPE/ECONNRESET, or a frame
    cut mid-flight).  {!predict} maps it to [Disconnected]; the other
    request helpers let it propagate.  The connection is closed. *)

val connect : Server.address -> t
(** Also ignores SIGPIPE for the process, so a daemon dying mid-request
    raises on this connection instead of killing the caller.  The
    client remembers the address, so {!retry} can redial after a
    [Disconnected].
    @raise Unix.Unix_error when nothing listens at the address. *)

val of_fd : Unix.file_descr -> t
(** Wrap an already-connected socket (e.g. one end of a socketpair the
    balancer health-checks shards through).  No redial on loss. *)

val close : t -> unit

val ping : t -> unit
(** Round-trip liveness check. @raise Error on anything but [Pong]. *)

val hello : ?want:Protocol.route_want -> t -> string * int * string
(** Route pin + handshake: sends [Hello want] (default [Want_any]) and
    returns the serving shard's [(fingerprint, shard_id, "f32")].  The
    third component is a constant: every shard serves the float
    network; it stays so that callers destructuring the triple keep
    compiling.
    Behind a balancer this must be the connection's first request —
    it is what the routing decision is made from. *)

type predict_outcome =
  | Ok of {
      c_bottom : Dco3d_tensor.Tensor.t;
      c_top : Dco3d_tensor.Tensor.t;
      cache_hit : bool;
    }
  | Overloaded of { queue_len : int; capacity : int }
  | Timed_out
  | Disconnected
      (** the connection died mid-request; the request may or may not
          have executed (predicts are idempotent, so re-sending is
          always safe) *)

val predict :
  ?timeout_ms:float ->
  t ->
  Dco3d_tensor.Tensor.t ->
  Dco3d_tensor.Tensor.t ->
  predict_outcome
(** [predict c f_bottom f_top] sends the raw [[7; ny; nx]] feature
    stacks and returns the daemon's congestion maps — bit-identical to
    a local [Predictor.predict] with the served model, whatever batch
    the daemon coalesced the request into.  [Overloaded] and
    [Timed_out] are expected backpressure outcomes, not errors. *)

val retry :
  ?attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  ?deadline_s:float ->
  ?seed:int ->
  ?timeout_ms:float ->
  t ->
  Dco3d_tensor.Tensor.t ->
  Dco3d_tensor.Tensor.t ->
  predict_outcome
(** {!predict} wrapped in jittered exponential backoff on the transient
    outcomes [Overloaded], [Timed_out], and [Disconnected].  The k-th
    retry waits [min max_delay_s (base_delay_s * 2^k)] scaled by a
    uniform jitter in [\[0.5, 1)] drawn from a deterministic stream
    ([seed]), so competing clients decorrelate instead of re-colliding.
    After [Disconnected], a client built with {!connect} redials before
    the next attempt — behind a balancer this turns a shard crash
    mid-request into a transparently retried success once the balancer
    has replaced the shard.  At most [attempts] total requests (default
    5) are sent; [deadline_s], when given, bounds the whole loop —
    sleeps are clamped to the budget remaining and no request is sent
    after it is exhausted.  When the loop gives up, the daemon's last
    outcome is returned verbatim.
    Defaults: [base_delay_s = 0.01], [max_delay_s = 0.5], no deadline.
    @raise Error as {!predict} does (server errors are not retried). *)

val submit_corpus : t -> Protocol.corpus_req -> int
(** Enqueue a corpus job (PPA cell or dataset build); returns its id
    immediately.  An identical request already queued or running on
    the shard returns the in-flight job's id (deduped server-side). *)

val poll_corpus : t -> int -> Protocol.corpus_status

val wait_corpus :
  ?poll_interval_s:float -> t -> int -> Protocol.corpus_result
(** Poll until the corpus job finishes (default every 50 ms).
    @raise Error if the job failed or the id is unknown. *)

val stats : t -> (string * float) list
