(* The fd-passing balancer: front process of the sharded serving fleet.

   One public socket, N shard daemons.  The balancer accepts a client
   connection, reads exactly ONE request (one frame, or a predict's
   envelope and body frames) to pick a shard, then hands the accepted
   descriptor to that shard over a Unix-domain control channel via
   SCM_RIGHTS ([Fdpass]) — together with those verified frames, which
   the shard replays as the connection's first request.  After the
   handoff the balancer holds nothing: every subsequent frame flows
   directly between client and shard, so the fleet's steady-state data
   path has zero proxy copies.

   Routing: a [Hello want] first request pins the connection to a shard
   by model fingerprint (the balancer answers the hello
   itself, then passes a bare fd).  Any other first request routes
   within the primary fingerprint group — slot 0's model — so clients
   that never hello always get results bit-identical to a direct
   [Predictor.predict] with that model: [Predict]s by hash affinity on
   their predict key, the verified digest of the body frame (cache
   locality across connections), everything else round-robin.  While that group is momentarily empty (startup,
   mid-swap) default traffic gets [Overloaded] rather than a
   foreign-fingerprint shard; [Client.retry] rides through.

   Supervision: shards are child processes respawned from the same
   argv.  A health loop reaps crashed pids ([waitpid WNOHANG] per pid),
   pings each live shard over a private socketpair (handed to the shard
   as an ordinary adopted connection), SIGKILLs hung ones, and restarts
   with a small backoff.  [drain_shard] sends the control-channel drain
   command; the shard finishes queued work, spills its hot set, and
   exits — the health loop then respawns it, which is how
   [rolling_restart] swaps models with zero fleet downtime. *)

module P = Protocol
module Obs = Dco3d_obs.Obs
module Pool = Dco3d_parallel.Pool

let c_accepted = Obs.counter "balance/accepted"
let c_handoffs = Obs.counter "balance/handoffs"
let c_no_shard = Obs.counter "balance/no_shard"
let c_restarts = Obs.counter "balance/restarts"
let c_health_fail = Obs.counter "balance/health_fail"

type config = {
  address : Server.address;
  ctl_path : string;
  n_shards : int;
  health_period_s : float;
  health_timeout_s : float;
  restart_backoff_s : float;
}

let default_config ~address ~ctl_path ~n_shards =
  {
    address;
    ctl_path;
    n_shards;
    health_period_s = 0.25;
    health_timeout_s = 5.0;
    restart_backoff_s = 0.2;
  }

(* Shards are separate processes, each with its own domain pool, so
   the fleet shares out the cores this process may use instead of
   giving every shard all of them. *)
let shard_jobs ~n_shards = max 1 (Pool.effective_jobs () / n_shards)

type slot_state = Starting | Live | Draining | Dead

let state_name = function
  | Starting -> "starting"
  | Live -> "live"
  | Draining -> "draining"
  | Dead -> "dead"

type slot = {
  idx : int;
  g_live : Obs.gauge;  (* balance/shard:<i>/live *)
  send_m : Mutex.t;  (* serializes control-channel writes to this shard *)
  mutable pid : int;  (* -1 = no process *)
  mutable state : slot_state;
  mutable ctl : Unix.file_descr option;  (* control channel to the shard *)
  mutable health : Unix.file_descr option;  (* our end of the health pair *)
  mutable fingerprint : string;
  mutable restarts : int;  (* completed respawns *)
  mutable respawn_at : float;  (* earliest next spawn, Unix time *)
}

type slot_info = {
  si_idx : int;
  si_state : string;
  si_pid : int;
  si_fingerprint : string;
  si_restarts : int;
}

type t = {
  cfg : config;
  argv_of : int -> string array;
  listen_fd : Unix.file_descr;
  bound : Server.address;
  ctl_fd : Unix.file_descr;
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  m : Mutex.t;
  slots : slot array;
  mutable rr : int;  (* round-robin cursor *)
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
  mutable ctl_thread : Thread.t option;
  mutable health_thread : Thread.t option;
  mutable router_threads : Thread.t list;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Send a control message to a shard WITHOUT holding [t.m] across the
   write.  A shard that stops reading (hung, or wedged on a spill
   write) would otherwise block the sender with the global lock held,
   and the health loop — which needs [t.m] to ping and SIGKILL — could
   never run: one stuck shard would deadlock the whole balancer.

   The ctl descriptor is duplicated under the lock so the health loop
   may reap the slot (closing [slot.ctl]) mid-send without the
   descriptor being recycled under our feet; the kernel socket stays
   alive until the dup is closed, and a send to a reaped shard just
   fails with EPIPE.  [slot.send_m] serializes concurrent senders —
   the control protocol is tag byte + length + payload, so interleaved
   writers would corrupt the framing.  A sender blocked on a hung
   shard holds only [send_m]; the watchdog stays free to SIGKILL the
   shard, which closes the peer end and unblocks the write. *)
let send_to_slot t slot ?fd ~tag ~when_ payload =
  let dup =
    locked t (fun () ->
        match slot.ctl with
        | Some ctl when when_ slot.state -> (
            match Unix.dup ~cloexec:true ctl with
            | d -> Some d
            | exception Unix.Unix_error _ -> None)
        | _ -> None)
  in
  match dup with
  | None -> false
  | Some d ->
      let ok =
        Mutex.lock slot.send_m;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock slot.send_m)
          (fun () ->
            match Fdpass.send_ctl d ?fd ~tag payload with
            | () -> true
            | exception _ -> false)
      in
      close_quiet d;
      ok

(* ------------------------------------------------------------------ *)
(* Slot lifecycle (all called with [t.m] held unless noted)            *)
(* ------------------------------------------------------------------ *)

let cleanup_slot slot =
  Option.iter close_quiet slot.ctl;
  Option.iter close_quiet slot.health;
  slot.ctl <- None;
  slot.health <- None;
  Obs.set_gauge slot.g_live 0.

let spawn_slot t slot =
  let argv = t.argv_of slot.idx in
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
  slot.pid <- pid;
  slot.state <- Starting

(* The shard process connected to the control socket and said hello:
   wire it into its slot and hand it the health-check socketpair as a
   regular adopted connection. *)
let register_shard t sock (hello : P.shard_hello) =
  let ok =
    locked t (fun () ->
        if
          hello.P.sh_shard < 0
          || hello.P.sh_shard >= Array.length t.slots
          || t.stopping
        then false
        else begin
          let slot = t.slots.(hello.P.sh_shard) in
          (* A stale process from a previous incarnation of this slot
             must not displace the current one. *)
          if slot.pid <> hello.P.sh_pid then false
          else begin
            cleanup_slot slot;
            let h_bal, h_shard =
              Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
            in
            (* Sending under [t.m] is safe only here: the payload is
               empty (one tag byte + a 4-byte length) into the empty
               buffer of a socket the shard just connected, so the
               write cannot block. *)
            (match Fdpass.send_ctl sock ~fd:h_shard ~tag:'C' "" with
             | () ->
                 close_quiet h_shard;
                 slot.ctl <- Some sock;
                 slot.health <- Some h_bal;
                 slot.fingerprint <- hello.P.sh_fingerprint;
                 slot.state <- Live;
                 Obs.set_gauge slot.g_live 1.
             | exception _ ->
                 close_quiet h_shard;
                 close_quiet h_bal;
                 raise Exit);
            true
          end
        end)
  in
  if not ok then close_quiet sock

let ctl_accept_loop t =
  let stop = ref false in
  while not !stop do
    match Unix.select [ t.ctl_fd; t.stop_rd ] [] [] (-1.0) with
    | rd, _, _ when List.memq t.stop_rd rd -> stop := true
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.ctl_fd with
        | sock, _ -> (
            (* The shard speaks first ('H' + shard_hello).  Reading it
               inline is fine: shards are our own children and send the
               hello immediately after connecting. *)
            match Fdpass.recv_ctl sock with
            | Some ('H', payload, None) -> (
                match register_shard t sock (P.decode_shard_hello payload) with
                | () -> ()
                | exception _ -> close_quiet sock)
            | _ | (exception _) -> close_quiet sock)
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
            ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> stop := true)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let live_slots t = (* t.m held *)
  Array.to_list t.slots |> List.filter (fun s -> s.state = Live)

(* The model group a no-hello connection lands in: slot 0's model, so
   default traffic is deterministic regardless of which shard serves
   it.  While the group is empty (startup, or slot 0's model mid-swap
   with no same-fingerprint sibling) this returns nothing and the
   caller answers [Overloaded] — [Client.retry] rides through the gap.
   Falling back to a foreign-fingerprint shard (another model) would break
   the guarantee that default traffic is bit-identical to a direct
   predict with slot 0's model. *)
let primary_group t = (* t.m held *)
  let fp0 = t.slots.(0).fingerprint in
  if fp0 = "" then []
  else List.filter (fun s -> s.fingerprint = fp0) (live_slots t)

let round_robin t candidates = (* t.m held *)
  match candidates with
  | [] -> None
  | _ ->
      let n = List.length candidates in
      t.rr <- t.rr + 1;
      Some (List.nth candidates (t.rr mod n))

let pick_slot t (raw : P.raw_request) = (* t.m held *)
  match raw with
  | P.Raw (P.Hello want, _) ->
      let candidates =
        match want with
        | P.Want_any -> live_slots t
        | P.Want_fingerprint fp ->
            List.filter (fun s -> s.fingerprint = fp) (live_slots t)
      in
      round_robin t candidates
  | P.Raw_predict { body; _ } -> (
      (* Hash affinity: the same feature maps always land on the same
         shard of the primary group, so its LRU concentrates the hits
         instead of every shard caching everything.  The body frame's
         verified digest is the predict key; the body is not decoded. *)
      match primary_group t with
      | [] -> None
      | group ->
          let n = List.length group in
          let h = Hashtbl.hash (Digest.to_hex body.P.digest) in
          Some (List.nth group (h mod n)))
  | P.Raw (P.Corpus_submit req, _) -> (
      (* Design affinity: all jobs on one design land on one shard of
         the primary group, so its job worker's route cache and warm
         state concentrate per design instead of every shard routing
         every design. *)
      match primary_group t with
      | [] -> None
      | group ->
          let h = Hashtbl.hash req.P.cr_spec.Dco3d_corpus.Corpus.sp_name in
          Some (List.nth group (h mod List.length group)))
  | P.Raw ((P.Ping | P.Stats | P.Corpus_poll _), _)
  (* [Protocol] refuses a predict whose tensors are in the envelope *)
  | P.Raw (P.Predict _, _) ->
      (* Job polls are connection-scoped: submit and poll travel on one
         connection, which lives on one shard, so round-robin is safe. *)
      round_robin t (primary_group t)

(* Route one accepted connection: read its first frame, pick a shard,
   hand the fd over.  Runs on a short-lived thread per connection so a
   slow first frame cannot head-of-line-block other clients. *)
let route_connection t fd =
  let reply_and_close r =
    (try P.send_reply fd r with _ -> ());
    close_quiet fd
  in
  match
    Obs.with_span "balance/route" (fun () ->
        (* A client that connects but never writes must not pin this
           thread forever. *)
        match Unix.select [ fd ] [] [] 30.0 with
        | [], _, _ -> `Drop
        | _ ->
            let raw = P.recv_raw_request fd in
            let target =
              locked t (fun () ->
                  match pick_slot t raw with
                  | None -> None
                  | Some slot ->
                      (match raw with
                      | P.Raw (P.Hello _, _) ->
                          (* The balancer owns the hello: pass a bare
                             fd (the shard sees a brand-new connection)
                             and answer the hello itself — but only
                             once the handoff succeeds, below. *)
                          Some
                            ( slot,
                              [],
                              Some
                                (P.Hello_reply
                                   {
                                     h_fingerprint = slot.fingerprint;
                                     h_shard = slot.idx;
                                   }) )
                      | _ -> Some (slot, P.raw_frames raw, None)))
            in
            match target with
            | None -> `No_shard
            | Some (slot, frames, reply) ->
                `Handoff (slot, P.encode_frames frames, reply))
  with
  | `Drop -> close_quiet fd
  | `No_shard ->
      (* Transient: the fleet is mid-restart.  [Overloaded] lets
         [Client.retry] handle it transparently. *)
      Obs.incr c_no_shard;
      reply_and_close (P.Overloaded { queue_len = 0; capacity = 0 })
  | `Handoff (slot, initial, reply) -> (
      (* Draining still accepts the fd we already routed — the shard
         finishes existing work before exiting. *)
      let sent =
        send_to_slot t slot ~fd ~tag:'C' initial
          ~when_:(function Live | Draining -> true | Starting | Dead -> false)
      in
      match sent with
      | true ->
          Obs.incr c_handoffs;
          (* Hello replies go out only now, after the handoff stuck: a
             reply written before a failed handoff would be followed by
             the Overloaded frame below, and the client's next request
             would read that stray frame as its answer. *)
          Option.iter (fun r -> try P.send_reply fd r with _ -> ()) reply;
          (* The kernel duplicated the descriptor into the shard; our
             copy is now just a refcount to drop. *)
          close_quiet fd
      | false ->
          Obs.incr c_no_shard;
          reply_and_close (P.Overloaded { queue_len = 0; capacity = 0 }))
  | exception End_of_file -> close_quiet fd
  | exception P.Protocol_error msg ->
      reply_and_close (P.Server_error ("protocol error: " ^ msg))
  | exception _ -> close_quiet fd

let accept_loop t =
  let stop = ref false in
  while not !stop do
    match Unix.select [ t.listen_fd; t.stop_rd ] [] [] (-1.0) with
    | rd, _, _ when List.memq t.stop_rd rd -> stop := true
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        (* cloexec everywhere a descriptor is born: a shard respawned
           by [spawn_slot] must inherit nothing but stdio, or a leaked
           dup defeats every EOF-based lifecycle signal in the fleet
           (shards waiting on balancer EOF, clients on shard EOF) and
           can keep a dead balancer's port bound. *)
        match Unix.accept ~cloexec:true t.listen_fd with
        | fd, _ ->
            Obs.incr c_accepted;
            let th = Thread.create (fun () -> route_connection t fd) () in
            locked t (fun () ->
                t.router_threads <-
                  th :: List.filteri (fun i _ -> i < 64) t.router_threads)
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
            ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> stop := true)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Health / supervision                                                *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

(* Ping a shard over its private health connection with a hard reply
   timeout.  Any failure marks the shard unhealthy. *)
let health_ping t slot =
  match locked t (fun () -> slot.health) with
  | None -> true (* not wired yet; process liveness covers it *)
  | Some fd -> (
      let probe () =
        P.send_request fd { P.req = P.Ping; timeout_ms = None };
        match Unix.select [ fd ] [] [] t.cfg.health_timeout_s with
        | [], _, _ -> `Timeout
        | _ -> ( match P.recv_reply fd with P.Pong -> `Ok | _ -> `Bad)
      in
      match probe () with
      | `Ok -> true
      | `Timeout | `Bad -> false
      | exception _ -> false)

let reap_slot t slot = (* not holding t.m *)
  locked t (fun () ->
      cleanup_slot slot;
      slot.pid <- -1;
      slot.state <- Dead;
      slot.restarts <- slot.restarts + 1;
      slot.respawn_at <- now () +. t.cfg.restart_backoff_s)

let health_pass t =
  Array.iter
    (fun slot ->
      let pid, state = locked t (fun () -> (slot.pid, slot.state)) in
      match state with
      | Dead ->
          locked t (fun () ->
              if (not t.stopping) && slot.state = Dead && now () >= slot.respawn_at
              then begin
                Obs.incr c_restarts;
                spawn_slot t slot
              end)
      | Starting | Live | Draining -> (
          (* Reap if the process exited (crash, or a drain completing). *)
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              if state = Live && not (health_ping t slot) then begin
                (* Hung: a shard that stops answering pings is as dead
                   as a crashed one, just politer.  Kill and respawn. *)
                Obs.incr c_health_fail;
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
                reap_slot t slot
              end
          | _pid, _status -> reap_slot t slot
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> reap_slot t slot))
    t.slots

let health_loop t =
  while not (locked t (fun () -> t.stopping)) do
    health_pass t;
    (* Sleep in small steps so stop requests are honored promptly. *)
    let slept = ref 0. in
    while
      !slept < t.cfg.health_period_s && not (locked t (fun () -> t.stopping))
    do
      Thread.delay 0.05;
      slept := !slept +. 0.05
    done
  done

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let start cfg ~argv_of =
  if cfg.n_shards < 1 then invalid_arg "Balance.start: n_shards < 1";
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ctl_fd, _ = Server.bind_listen (Server.Unix_path cfg.ctl_path) in
  let listen_fd, bound =
    try Server.bind_listen cfg.address
    with e ->
      close_quiet ctl_fd;
      (try Unix.unlink cfg.ctl_path with Unix.Unix_error _ -> ());
      raise e
  in
  let stop_rd, stop_wr = Unix.pipe ~cloexec:true () in
  let t =
    {
      cfg;
      argv_of;
      listen_fd;
      bound;
      ctl_fd;
      stop_rd;
      stop_wr;
      m = Mutex.create ();
      slots =
        Array.init cfg.n_shards (fun idx ->
            {
              idx;
              g_live = Obs.gauge (Printf.sprintf "balance/shard:%d/live" idx);
              send_m = Mutex.create ();
              pid = -1;
              state = Dead;
              ctl = None;
              health = None;
              fingerprint = "";
              restarts = -1;  (* first spawn is not a "restart" *)
              respawn_at = 0.;
            });
      rr = 0;
      stopping = false;
      accept_thread = None;
      ctl_thread = None;
      health_thread = None;
      router_threads = [];
    }
  in
  t.ctl_thread <- Some (Thread.create (fun () -> ctl_accept_loop t) ());
  locked t (fun () ->
      Array.iter
        (fun slot ->
          slot.restarts <- 0;
          spawn_slot t slot)
        t.slots);
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t.health_thread <- Some (Thread.create (fun () -> health_loop t) ());
  t

let bound_addr t = t.bound

let slots t =
  locked t (fun () ->
      Array.to_list t.slots
      |> List.map (fun s ->
             {
               si_idx = s.idx;
               si_state = state_name s.state;
               si_pid = s.pid;
               si_fingerprint = s.fingerprint;
               si_restarts = s.restarts;
             }))

let n_live t =
  locked t (fun () -> List.length (live_slots t))

let await_live ?(timeout_s = 60.) t n =
  let deadline = now () +. timeout_s in
  let rec go () =
    if n_live t >= n then true
    else if now () > deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let drain_shard t idx =
  if idx < 0 || idx >= Array.length t.slots then
    invalid_arg "Balance.drain_shard: bad shard index";
  let slot = t.slots.(idx) in
  let eligible =
    locked t (fun () ->
        match (slot.state, slot.ctl) with
        | Live, Some _ ->
            slot.state <- Draining;
            Obs.set_gauge slot.g_live 0.;
            true
        | _ -> false)
  in
  if eligible then
    (* Send failure means the shard is already dying; the health loop
       reaps it either way. *)
    ignore (send_to_slot t slot ~tag:'D' ~when_:(fun s -> s = Draining) "")

let rolling_restart ?(timeout_s = 120.) t =
  Array.for_all
    (fun slot ->
      let before = locked t (fun () -> slot.restarts) in
      drain_shard t slot.idx;
      (* Wait for this slot to cycle back to Live before touching the
         next one — that is what keeps the swap zero-downtime. *)
      let deadline = now () +. timeout_s in
      let rec wait () =
        let restarted, state =
          locked t (fun () -> (slot.restarts > before, slot.state))
        in
        if restarted && state = Live then true
        else if now () > deadline then false
        else begin
          Thread.delay 0.05;
          wait ()
        end
      in
      wait ())
    t.slots

let request_stop t =
  let first =
    locked t (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          true
        end)
  in
  if first then
    try ignore (Unix.write t.stop_wr (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

let wait t =
  Option.iter Thread.join t.accept_thread;
  Option.iter Thread.join t.ctl_thread;
  Option.iter Thread.join t.health_thread;
  List.iter Thread.join (locked t (fun () -> t.router_threads));
  (* Graceful fleet shutdown: ask every shard to drain, then reap.
     The drain sends run outside [t.m] like all slot writes — a shard
     wedged with a full control buffer must not hang the shutdown with
     the lock held (the bounded reap below escalates to SIGKILL). *)
  let pids =
    locked t (fun () ->
        Array.to_list t.slots
        |> List.filter_map (fun slot ->
               if slot.pid > 0 then Some (slot, slot.pid) else None))
  in
  List.iter
    (fun (slot, _) -> ignore (send_to_slot t slot ~tag:'D' ~when_:(fun _ -> true) ""))
    pids;
  List.iter
    (fun (slot, pid) ->
      (* Bounded wait for the drain, then escalate. *)
      let deadline = now () +. 30. in
      let rec reap () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if now () > deadline then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
            end
            else begin
              Thread.delay 0.02;
              reap ()
            end
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      reap ();
      locked t (fun () ->
          cleanup_slot slot;
          slot.pid <- -1;
          slot.state <- Dead))
    pids;
  close_quiet t.listen_fd;
  close_quiet t.ctl_fd;
  close_quiet t.stop_rd;
  close_quiet t.stop_wr;
  (try Unix.unlink t.cfg.ctl_path with Unix.Unix_error _ -> ());
  match t.bound with
  | Server.Unix_path path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | Server.Tcp _ -> ()

let stop t =
  request_stop t;
  wait t
