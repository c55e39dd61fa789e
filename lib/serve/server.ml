module P = Protocol
module Obs = Dco3d_obs.Obs
module Predictor = Dco3d_core.Predictor
module T = Dco3d_tensor.Tensor
module Store = Dco3d_framing.Framing.Store
module Route_cache = Dco3d_route.Route_cache
module Corpus = Dco3d_corpus.Corpus
module Dataset = Dco3d_core.Dataset

type address = Unix_path of string | Tcp of string * int

type config = {
  address : address;
  queue_capacity : int;
  max_batch : int;
  batch_linger_ms : float;
  cache_capacity : int;
  spill_dir : string option;
  route_cache_dir : string option;
  corpus_dir : string option;
      (* PPA row store; defaults to <route_cache_dir>/corpus *)
  shard_id : int;
}

let default_config address =
  {
    address;
    queue_capacity = 64;
    max_batch = 8;
    batch_linger_ms = 0.;
    cache_capacity = 128;
    spill_dir = None;
    route_cache_dir = None;
    corpus_dir = None;
    shard_id = 0;
  }

(* Obs probes (interning is idempotent, handles live at module level). *)
let c_requests = Obs.counter "serve/requests"
let c_cache_hit = Obs.counter "serve/cache_hit"
let c_cache_miss = Obs.counter "serve/cache_miss"
let c_overloaded = Obs.counter "serve/overloaded"
let c_timeout = Obs.counter "serve/timeout"
let c_epipe = Obs.counter "serve/epipe"
let c_spill_write = Obs.counter "serve/spill_write"
let c_corpus_dedup = Obs.counter "serve/corpus_dedup"
let g_queue_depth = Obs.gauge "serve/queue_depth"
let h_batch_size = Obs.histogram "serve/batch_size"

(* A predict request parked between its connection handler and the
   batcher.  The handler blocks on [cv] until the batcher (or the
   cache, or the deadline) fills [outcome]. *)
type pending = {
  payload : P.predict_payload;
  key : string;
  deadline : float option;  (** absolute, [Unix.gettimeofday] clock *)
  mutable outcome : P.reply option;
  pm : Mutex.t;
  pcv : Condition.t;
}

(* The async job class, corpus jobs: its queue (id, dedup key,
   request), the worker's wakeup, and the status table clients poll.
   [inflight] maps the dedup key of each queued or running job to its
   id, so a duplicate submit joins it instead of queueing a second run.
   Finished statuses retire through two FIFOs: [finished] in finish
   order and [polled] in the order their final status was first
   answered ([unpolled] marks the finished ids not yet answered).  A
   status goes once [job_retention] later ones have been answered, or
   once [job_retention_unpolled] later jobs have finished, whichever
   comes first; queued and running jobs are never dropped. *)
type jobs = {
  pending : (int * string * P.corpus_req) Queue.t;
  wake : Condition.t;
  status : (int, P.corpus_status) Hashtbl.t;
  inflight : (string, int) Hashtbl.t;
  finished : int Queue.t;
  unpolled : (int, unit) Hashtbl.t;
  polled : int Queue.t;
}

let job_retention = 256
let job_retention_unpolled = 4096

let new_jobs () =
  {
    pending = Queue.create ();
    wake = Condition.create ();
    status = Hashtbl.create 16;
    inflight = Hashtbl.create 16;
    finished = Queue.create ();
    unpolled = Hashtbl.create 16;
    polled = Queue.create ();
  }

(* Drop the oldest ids of [fifo] past [limit].  An id may already be
   gone through the other FIFO; removing it again is a no-op. *)
let retire jobs fifo limit =
  while Queue.length fifo > limit do
    let id = Queue.pop fifo in
    Hashtbl.remove jobs.status id;
    Hashtbl.remove jobs.unpolled id
  done

(* Answer a poll.  Called with [t.m] held.  The first answer carrying
   a finished status moves the id to the [polled] FIFO, so a matrix
   client that submits every cell before polling any still finds
   them all. *)
let poll_status jobs id =
  let status = Hashtbl.find_opt jobs.status id in
  if Hashtbl.mem jobs.unpolled id then begin
    Hashtbl.remove jobs.unpolled id;
    Queue.push id jobs.polled;
    retire jobs jobs.polled job_retention
  end;
  status

type stats_acc = {
  mutable n_requests : int;
  mutable n_cache_hits : int;
  mutable n_cache_misses : int;
  mutable n_overloaded : int;
  mutable n_timeouts : int;
  mutable n_batches : int;
  mutable max_batch_seen : int;
  mutable n_epipe : int;
  mutable n_spill_hits : int;
  mutable n_spill_writes : int;
  mutable corpus_submitted : int;
  mutable corpus_dedup : int;  (* submits answered with an in-flight id *)
  mutable corpus_done : int;
  mutable corpus_failed : int;
}

type t = {
  cfg : config;
  predictor : Predictor.t;
  fingerprint : string;
  listen : Unix.file_descr option;  (* absent for detached (shard) servers *)
  bound : address;
  (* Self-pipe: [request_stop] writes one byte so the accept loop's
     blocking select wakes immediately instead of on a poll tick. *)
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  spill : (T.t * T.t) Store.t option;
  route_cache : Route_cache.t option;
  corpus_store : Corpus.row Store.t option;
  started_at : float;
  (* All mutable server state below is guarded by [m]. *)
  m : Mutex.t;
  queue_cv : Condition.t;  (* batcher wakeup *)
  queue : pending Queue.t;
  cache : (T.t * T.t) Lru.t;
  jobs : jobs;
  mutable next_job_id : int;
  mutable stopping : bool;
  mutable conns : Unix.file_descr list;  (* live connection sockets *)
  stats : stats_acc;
  mutable accept_thread : Thread.t option;
  mutable batcher_thread : Thread.t option;
  mutable job_thread : Thread.t option;
  mutable handler_threads : Thread.t list;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Write one cache entry to the disk spill: an entry [Lru.put] evicted,
   or a resident one at drain.  Called with [t.m] held, so an evicted
   entry is on disk before the reply that evicted it: entries are two
   small gcell maps, the write is one buffered temp file + rename, and
   the store scans its directory only once per cap/16 puts. *)
let spill_put t (key, value) =
  match t.spill with
  | None -> ()
  | Some sp ->
      if Store.put sp key value then begin
        t.stats.n_spill_writes <- t.stats.n_spill_writes + 1;
        Obs.incr c_spill_write
      end

let now () = Unix.gettimeofday ()

let deadline_of arrival = function
  | None -> None
  | Some ms -> Some (arrival +. (ms /. 1000.))

let expired deadline = match deadline with Some d -> now () > d | None -> false

let resolve_pending p reply =
  Mutex.lock p.pm;
  p.outcome <- Some reply;
  Condition.signal p.pcv;
  Mutex.unlock p.pm

let await_pending p =
  Mutex.lock p.pm;
  while p.outcome = None do
    Condition.wait p.pcv p.pm
  done;
  let r = Option.get p.outcome in
  Mutex.unlock p.pm;
  r

(* ------------------------------------------------------------------ *)
(* Micro-batcher                                                       *)
(* ------------------------------------------------------------------ *)

(* Pop up to [max_batch] pending requests.  Called with [t.m] held and
   the queue non-empty. *)
let take_batch t =
  let n = min t.cfg.max_batch (Queue.length t.queue) in
  let batch = Array.init n (fun _ -> Queue.pop t.queue) in
  Obs.set_gauge g_queue_depth (float_of_int (Queue.length t.queue));
  batch

let run_batch t batch =
  (* Late cache check: an identical request may have been answered (and
     cached) since this one queued; and identical requests inside one
     batch should run the forward pass once. *)
  let misses = ref [] in
  let by_key : (string, pending list) Hashtbl.t = Hashtbl.create 8 in
  locked t (fun () ->
      Array.iter
        (fun p ->
          if expired p.deadline then begin
            t.stats.n_timeouts <- t.stats.n_timeouts + 1;
            Obs.incr c_timeout;
            resolve_pending p P.Timed_out
          end
          else
            match Lru.find t.cache p.key with
            | Some (cb, ct) ->
                t.stats.n_cache_hits <- t.stats.n_cache_hits + 1;
                Obs.incr c_cache_hit;
                resolve_pending p
                  (P.Predicted { c_bottom = cb; c_top = ct; cache_hit = true })
            | None ->
                if not (Hashtbl.mem by_key p.key) then misses := p :: !misses;
                Hashtbl.replace by_key p.key
                  (p :: Option.value ~default:[] (Hashtbl.find_opt by_key p.key)))
        batch);
  let misses = Array.of_list (List.rev !misses) in
  let n = Array.length misses in
  if n > 0 then begin
    Obs.observe h_batch_size (float_of_int n);
    (* the forward pass must not be able to kill the batcher thread: a
       malformed payload (wrong channel count, bad shape) raising out
       of here would leave every queued and future request waiting on
       [cv] forever.  Fail the affected requests, keep the loop. *)
    let results =
      try
        Ok
          (Obs.with_span "serve/batch"
             ~args:[ ("size", string_of_int n) ]
             (fun () ->
               Predictor.predict_batch t.predictor
                 (Array.map
                    (fun p -> (p.payload.P.f_bottom, p.payload.P.f_top))
                    misses)))
      with e -> Error (Printexc.to_string e)
    in
    match results with
    | Error msg ->
        locked t (fun () ->
            Array.iter
              (fun p ->
                List.iter
                  (fun q ->
                    resolve_pending q
                      (P.Server_error ("predict failed: " ^ msg)))
                  (Hashtbl.find by_key p.key))
              misses)
    | Ok results ->
    locked t (fun () ->
        t.stats.n_batches <- t.stats.n_batches + 1;
        if n > t.stats.max_batch_seen then t.stats.max_batch_seen <- n;
        Array.iteri
          (fun i p ->
            let cb, ct = results.(i) in
            Option.iter (spill_put t) (Lru.put t.cache p.key (cb, ct));
            t.stats.n_cache_misses <-
              t.stats.n_cache_misses + List.length (Hashtbl.find by_key p.key);
            List.iter
              (fun q ->
                Obs.incr c_cache_miss;
                resolve_pending q
                  (P.Predicted { c_bottom = cb; c_top = ct; cache_hit = false }))
              (Hashtbl.find by_key p.key))
          misses)
  end

let batcher_loop t =
  let running = ref true in
  while !running do
    let batch =
      locked t (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.queue_cv t.m
          done;
          if Queue.is_empty t.queue then begin
            running := false;
            [||]
          end
          else if
            Queue.length t.queue < t.cfg.max_batch
            && t.cfg.batch_linger_ms > 0. && not t.stopping
          then [||] (* linger outside the lock, then retry *)
          else take_batch t)
    in
    if !running then
      if Array.length batch = 0 then begin
        (* Linger: give concurrent clients a moment to pile on, then
           take whatever is there.  OCaml's [Condition] has no timed
           wait, so this is a plain sleep. *)
        Thread.delay (t.cfg.batch_linger_ms /. 1000.);
        let batch =
          locked t (fun () ->
              if Queue.is_empty t.queue then [||] else take_batch t)
        in
        if Array.length batch > 0 then run_batch t batch
      end
      else run_batch t batch
  done

(* ------------------------------------------------------------------ *)
(* Job runner: corpus jobs                                             *)
(* ------------------------------------------------------------------ *)

(* Queue a corpus request, or join the queued or running job with the
   same dedup [key].  Called with [t.m] held. *)
let enqueue t key req =
  let jobs = t.jobs in
  match Hashtbl.find_opt jobs.inflight key with
  | Some id ->
      t.stats.corpus_dedup <- t.stats.corpus_dedup + 1;
      Obs.incr c_corpus_dedup;
      id
  | None ->
      let id = t.next_job_id in
      t.next_job_id <- id + 1;
      Hashtbl.replace jobs.status id P.Corpus_queued;
      Hashtbl.replace jobs.inflight key id;
      Queue.push (id, key, req) jobs.pending;
      Condition.signal jobs.wake;
      t.stats.corpus_submitted <- t.stats.corpus_submitted + 1;
      id

let run_corpus_req ?store ?route_cache (req : P.corpus_req) =
  match req.P.cr_kind with
  | P.Corpus_ppa ->
      P.Corpus_row
        (Corpus.run_cell ?store ?route_cache req.P.cr_spec req.P.cr_config)
  | P.Corpus_dataset n_samples ->
      let d =
        Corpus.build_dataset ~n_samples ?route_cache req.P.cr_spec
          req.P.cr_config
      in
      P.Corpus_dataset_built
        {
          cd_design = d.Dataset.design;
          cd_samples = Array.length d.Dataset.samples;
          cd_digest = Dataset.digest d;
        }

(* Never raises: a failure is folded into the job's status. *)
let run_corpus_job t (req : P.corpus_req) =
  try
    P.Corpus_done
      (Obs.with_span "serve/corpus_job"
         ~args:
           [
             ("design", req.P.cr_spec.Corpus.sp_name);
             ("config", req.P.cr_config.Corpus.fc_name);
           ]
         (fun () ->
           run_corpus_req ?store:t.corpus_store ?route_cache:t.route_cache req))
  with
  | Not_found ->
      P.Corpus_failed
        (Printf.sprintf "unknown base profile %S" req.P.cr_spec.Corpus.sp_base)
  | e -> P.Corpus_failed (Printexc.to_string e)

(* The one job worker: runs corpus jobs in submission order, one at a
   time, and drains its queue before honouring [stopping]. *)
let job_loop t =
  let jobs = t.jobs in
  let rec loop () =
    let next =
      locked t (fun () ->
          while Queue.is_empty jobs.pending && not t.stopping do
            Condition.wait jobs.wake t.m
          done;
          let job = Queue.take_opt jobs.pending in
          Option.iter
            (fun (id, _, _) -> Hashtbl.replace jobs.status id P.Corpus_running)
            job;
          job)
    in
    match next with
    | None -> ()
    | Some (id, key, req) ->
        let status = run_corpus_job t req in
        locked t (fun () ->
            Hashtbl.replace jobs.status id status;
            Hashtbl.remove jobs.inflight key;
            Hashtbl.replace jobs.unpolled id ();
            Queue.push id jobs.finished;
            retire jobs jobs.finished job_retention_unpolled;
            match status with
            | P.Corpus_done _ -> t.stats.corpus_done <- t.stats.corpus_done + 1
            | _ -> t.stats.corpus_failed <- t.stats.corpus_failed + 1);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_snapshot t =
  locked t (fun () ->
      let s = t.stats in
      [
        ("queue_depth", float_of_int (Queue.length t.queue));
        ("queue_capacity", float_of_int t.cfg.queue_capacity);
        ("cache_len", float_of_int (Lru.length t.cache));
        ("cache_capacity", float_of_int (Lru.capacity t.cache));
        ("requests", float_of_int s.n_requests);
        ("cache_hits", float_of_int s.n_cache_hits);
        ("cache_misses", float_of_int s.n_cache_misses);
        ("overloaded", float_of_int s.n_overloaded);
        ("timeouts", float_of_int s.n_timeouts);
        ("batches", float_of_int s.n_batches);
        ("max_batch", float_of_int s.max_batch_seen);
        ("epipe", float_of_int s.n_epipe);
        ("spill_hits", float_of_int s.n_spill_hits);
        ("spill_writes", float_of_int s.n_spill_writes);
        ("corpus_submitted", float_of_int s.corpus_submitted);
        ("corpus_dedup", float_of_int s.corpus_dedup);
        ("corpus_done", float_of_int s.corpus_done);
        ("corpus_failed", float_of_int s.corpus_failed);
        (* store/cache effectiveness, readable fleet-wide over the wire *)
        ( "corpus_cache_hits",
          float_of_int (Obs.counter_value "corpus/cache_hit") );
        ( "corpus_cache_misses",
          float_of_int (Obs.counter_value "corpus/cache_miss") );
        ( "corpus_cache_evicted",
          float_of_int (Obs.counter_value "corpus/cache_evicted") );
        ("shard_id", float_of_int t.cfg.shard_id);
        ("uptime_s", now () -. t.started_at);
      ])

let stats = stats_snapshot

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)
(* ------------------------------------------------------------------ *)

(* [content_key] is the verified digest of the predict's body frame
   ([Protocol.read_request]), equal to [Protocol.predict_key payload]:
   the body is not hashed a second time. *)
let handle_predict t payload ~content_key timeout_ms =
  let key = content_key ^ ":" ^ t.fingerprint in
  let arrival = now () in
  let cached =
    locked t (fun () ->
        match Lru.find t.cache key with
        | Some (cb, ct) ->
            (* Fast path: answered from the cache on the connection
               thread, no queueing, no forward pass. *)
            t.stats.n_cache_hits <- t.stats.n_cache_hits + 1;
            Obs.incr c_cache_hit;
            Some (P.Predicted { c_bottom = cb; c_top = ct; cache_hit = true })
        | None -> None)
  in
  match cached with
  | Some r -> r
  | None ->
  (* Read-through to the spill before paying for a forward pass, so a
     restarted shard serves its predecessor's hot set.  The disk read
     runs outside the state lock; a racing duplicate at worst reads the
     same file twice. *)
  match Option.bind t.spill (fun sp -> Store.find sp key) with
  | Some (cb, ct) ->
      locked t (fun () ->
          Option.iter (spill_put t) (Lru.put t.cache key (cb, ct));
          t.stats.n_cache_hits <- t.stats.n_cache_hits + 1;
          t.stats.n_spill_hits <- t.stats.n_spill_hits + 1);
      Obs.incr c_cache_hit;
      P.Predicted { c_bottom = cb; c_top = ct; cache_hit = true }
  | None ->
  let action =
    locked t (fun () ->
        match Lru.find t.cache key with
        | Some (cb, ct) ->
            (* A racing duplicate landed while we probed the spill. *)
            t.stats.n_cache_hits <- t.stats.n_cache_hits + 1;
            Obs.incr c_cache_hit;
            `Reply (P.Predicted { c_bottom = cb; c_top = ct; cache_hit = true })
        | None ->
            if t.stopping then `Reply (P.Server_error "server shutting down")
            else if Queue.length t.queue >= t.cfg.queue_capacity then begin
              t.stats.n_overloaded <- t.stats.n_overloaded + 1;
              Obs.incr c_overloaded;
              `Reply
                (P.Overloaded
                   {
                     queue_len = Queue.length t.queue;
                     capacity = t.cfg.queue_capacity;
                   })
            end
            else begin
              let p =
                {
                  payload;
                  key;
                  deadline = deadline_of arrival timeout_ms;
                  outcome = None;
                  pm = Mutex.create ();
                  pcv = Condition.create ();
                }
              in
              Queue.push p t.queue;
              Obs.set_gauge g_queue_depth (float_of_int (Queue.length t.queue));
              Condition.signal t.queue_cv;
              `Wait p
            end)
  in
  match action with `Reply r -> r | `Wait p -> await_pending p

let handle_request t (env : P.envelope) content_key =
  locked t (fun () -> t.stats.n_requests <- t.stats.n_requests + 1);
  Obs.incr c_requests;
  match env.P.req with
  | P.Ping -> P.Pong
  | P.Stats -> P.Stats_reply (stats_snapshot t)
  | P.Predict payload ->
      (* [read_request] returns a key with every predict *)
      handle_predict t payload ~content_key:(Option.get content_key)
        env.P.timeout_ms
  | P.Hello _ ->
      (* Normally consumed by the balancer; answered here too so a
         client talking straight to a shard gets the same handshake. *)
      P.Hello_reply
        { h_fingerprint = t.fingerprint; h_shard = t.cfg.shard_id }
  | P.Corpus_submit req ->
      let key = P.corpus_key req in
      let id = locked t (fun () -> if t.stopping then -1 else enqueue t key req) in
      if id < 0 then P.Server_error "server shutting down" else P.Accepted id
  | P.Corpus_poll id -> (
      match locked t (fun () -> poll_status t.jobs id) with
      | Some status -> P.Corpus_status status
      | None -> P.Server_error (Printf.sprintf "unknown corpus job id %d" id))

(* [initial] holds the frames the balancer already read off this
   connection to pick the route; the handler replays them before
   touching the socket so the client's first request is never lost. *)
let handler_loop t ~initial fd =
  let finished = ref false in
  let replay = ref initial in
  let next_frame () =
    match !replay with
    | f :: rest ->
        replay := rest;
        f
    | [] -> P.recv_frame fd
  in
  (try
     while not !finished do
       match P.read_request next_frame with
       | env, content_key -> (
           let reply =
             try handle_request t env content_key
             with e -> P.Server_error (Printexc.to_string e)
           in
           try P.send_reply fd reply with
           | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
               (* The client went away mid-reply: a per-connection
                  error, not a daemon failure (SIGPIPE is ignored). *)
               locked t (fun () -> t.stats.n_epipe <- t.stats.n_epipe + 1);
               Obs.incr c_epipe;
               finished := true)
       | exception End_of_file -> finished := true
       | exception P.Protocol_error msg ->
           (try P.send_reply fd (P.Server_error ("protocol error: " ^ msg))
            with _ -> ());
           finished := true
       | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
         ->
           locked t (fun () -> t.stats.n_epipe <- t.stats.n_epipe + 1);
           Obs.incr c_epipe;
           finished := true
     done
   with _ -> ());
  locked t (fun () ->
      t.conns <- List.filter (fun c -> c != fd) t.conns);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Register a connection and serve it on its own thread.  Returns false
   (and closes the fd) if the server is already stopping.  This is how
   the accept loop admits sockets and how a shard adopts fds handed
   over by the balancer. *)
let adopt_connection t ?(initial = []) fd =
  let admit =
    locked t (fun () ->
        if t.stopping then false
        else begin
          t.conns <- fd :: t.conns;
          true
        end)
  in
  if admit then
    locked t (fun () ->
        t.handler_threads <-
          Thread.create (fun () -> handler_loop t ~initial fd) ()
          :: t.handler_threads)
  else Unix.close fd;
  admit

let accept_loop t listen_fd =
  let stop = ref false in
  while not !stop do
    if locked t (fun () -> t.stopping) then stop := true
    else
      (* Block in [select] rather than [accept] — closing a socket does
         not reliably wake a thread already inside [accept].  The
         self-pipe makes [request_stop] wake this select immediately;
         no poll-period latency on either accept or shutdown. *)
      match Unix.select [ listen_fd; t.stop_rd ] [] [] (-1.0) with
      | rd, _, _ when List.memq t.stop_rd rd -> stop := true
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true listen_fd with
          | fd, _ -> ignore (adopt_connection t fd)
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
              ()
          | exception Unix.Unix_error (Unix.EBADF, _, _) -> stop := true)
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* Listening sockets are close-on-exec: the balancer respawns shard
   children from the process that holds them, and an inherited listener
   would keep a crashed balancer's address bound (and its clients
   EOF-less) for as long as any shard lives. *)
let bind_listen = function
  | Unix_path path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Unix_path path)
  | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let addr = Unix.inet_addr_of_string host in
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Tcp (host, bound_port))

(* A peer that disappears mid-write must surface as EPIPE on that
   connection, not as a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let open_spill dir : (T.t * T.t) Store.t =
  Store.create ~magic:"DCO3D-SPILL-V1" ~suffix:".spill" ~counters:"serve/spill"
    dir

let make ~listen ~bound cfg predictor =
  ignore_sigpipe ();
  if cfg.queue_capacity < 1 then invalid_arg "Server.start: queue_capacity < 1";
  if cfg.max_batch < 1 then invalid_arg "Server.start: max_batch < 1";
  let fingerprint = Predictor.fingerprint predictor in
  let stop_rd, stop_wr = Unix.pipe ~cloexec:true () in
  let spill = Option.map open_spill cfg.spill_dir in
  (* One route cache and one PPA store per daemon, used by the job
     worker.  Shards pass one shared directory, so sibling daemons
     replay each other's routed corpus.  The PPA store sits next to the
     route cache: an explicit --corpus-cache wins, else
     <route cache>/corpus, else no persistence (jobs still run). *)
  let route_cache = Option.map Route_cache.create cfg.route_cache_dir in
  let corpus_store =
    match (cfg.corpus_dir, cfg.route_cache_dir) with
    | Some d, _ -> Some (Corpus.open_store d)
    | None, Some rc -> Some (Corpus.open_store (Filename.concat rc "corpus"))
    | None, None -> None
  in
  let t =
    {
      cfg;
      predictor;
      fingerprint;
      listen;
      bound;
      stop_rd;
      stop_wr;
      spill;
      route_cache;
      corpus_store;
      started_at = now ();
      m = Mutex.create ();
      queue_cv = Condition.create ();
      queue = Queue.create ();
      cache = Lru.create ~capacity:cfg.cache_capacity;
      jobs = new_jobs ();
      next_job_id = 0;
      stopping = false;
      conns = [];
      stats =
        {
          n_requests = 0;
          n_cache_hits = 0;
          n_cache_misses = 0;
          n_overloaded = 0;
          n_timeouts = 0;
          n_batches = 0;
          max_batch_seen = 0;
          n_epipe = 0;
          n_spill_hits = 0;
          n_spill_writes = 0;
          corpus_submitted = 0;
          corpus_dedup = 0;
          corpus_done = 0;
          corpus_failed = 0;
        };
      accept_thread = None;
      batcher_thread = None;
      job_thread = None;
      handler_threads = [];
    }
  in
  Option.iter
    (fun listen_fd ->
      t.accept_thread <- Some (Thread.create (fun () -> accept_loop t listen_fd) ()))
    listen;
  t.batcher_thread <- Some (Thread.create (fun () -> batcher_loop t) ());
  t.job_thread <- Some (Thread.create job_loop t);
  t

let start cfg predictor =
  let listen_fd, bound = bind_listen cfg.address in
  make ~listen:(Some listen_fd) ~bound cfg predictor

let start_detached cfg predictor =
  make ~listen:None ~bound:cfg.address cfg predictor

let bound_addr t = t.bound
let fingerprint t = t.fingerprint

let request_stop t =
  let first =
    locked t (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          Condition.broadcast t.queue_cv;
          Condition.broadcast t.jobs.wake;
          true
        end)
  in
  (* Self-pipe byte: wakes the accept loop's blocking select now. *)
  if first then
    try ignore (Unix.write t.stop_wr (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

let wait t =
  Option.iter Thread.join t.accept_thread;
  (* Unblock handlers parked in [recv_request] (receive side only:
     handlers waiting on a queued predict must still be able to send
     the reply once the batcher drains it below). *)
  locked t (fun () -> t.conns)
  |> List.iter (fun fd ->
         try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
         with Unix.Unix_error _ -> ());
  (* The batcher drains the remaining queue before exiting (its loop
     only stops on [stopping && queue empty]); same for the job
     worker.  Handlers waiting on pending outcomes therefore finish. *)
  Option.iter Thread.join t.batcher_thread;
  List.iter Thread.join (locked t (fun () -> t.handler_threads));
  Option.iter Thread.join t.job_thread;
  (* Flush the surviving hot set so a successor process starts warm —
     eviction only spilled the overflow; this writes what's resident. *)
  if Option.is_some t.spill then
    locked t (fun () -> Lru.iter t.cache (fun key v -> spill_put t (key, v)));
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listen;
  (try Unix.close t.stop_rd with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_wr with Unix.Unix_error _ -> ());
  match (t.listen, t.bound) with
  | Some _, Unix_path path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ()

let stop t =
  request_stop t;
  wait t
