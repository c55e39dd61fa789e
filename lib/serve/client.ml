module P = Protocol

type t = {
  mutable fd : Unix.file_descr;
  mutable open_ : bool;
  redial : (unit -> Unix.file_descr) option;
      (* how to re-establish this connection after the peer vanishes;
         present for [connect]ed clients, absent for [of_fd] *)
}

exception Error of string

let dial (addr : Server.address) =
  let fd, sockaddr =
    match addr with
    | Server.Unix_path path ->
        (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Server.Tcp (host, port) ->
        ( Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
          Unix.ADDR_INET (Unix.inet_addr_of_string host, port) )
  in
  (try Unix.connect fd sockaddr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let connect (addr : Server.address) =
  (* A daemon that dies mid-request must surface as an exception on
     this connection, not as a process-killing SIGPIPE. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  { fd = dial addr; open_ = true; redial = Some (fun () -> dial addr) }

let of_fd fd = { fd; open_ = true; redial = None }

let close c =
  if c.open_ then begin
    c.open_ <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Try to re-establish a dropped connection.  True on success. *)
let reconnect c =
  match c.redial with
  | None -> false
  | Some f -> (
      close c;
      match f () with
      | fd ->
          c.fd <- fd;
          c.open_ <- true;
          true
      | exception _ -> false)

exception Lost_connection

let roundtrip c req timeout_ms =
  if not c.open_ then raise (Error "client closed");
  try
    P.send_request c.fd { P.req; timeout_ms };
    P.recv_reply c.fd
  with
  | P.Version_mismatch v ->
      close c;
      raise
        (Error
           (Printf.sprintf
              "the daemon speaks wire version %d, this client speaks %d" v
              P.version))
  | End_of_file
  | P.Protocol_error _
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
      (* The peer vanished (shard crash, balancer restart) or the frame
         was cut mid-flight.  The connection is unusable either way. *)
      close c;
      raise Lost_connection

let fail_reply what = function
  | P.Server_error msg -> raise (Error (what ^ ": server error: " ^ msg))
  | _ -> raise (Error (what ^ ": unexpected reply"))

let ping c =
  match roundtrip c P.Ping None with
  | P.Pong -> ()
  | r -> fail_reply "ping" r

let hello ?(want = P.Want_any) c =
  match roundtrip c (P.Hello want) None with
  | P.Hello_reply { h_fingerprint; h_shard } -> (h_fingerprint, h_shard, "f32")
  | r -> fail_reply "hello" r

type predict_outcome =
  | Ok of {
      c_bottom : Dco3d_tensor.Tensor.t;
      c_top : Dco3d_tensor.Tensor.t;
      cache_hit : bool;
    }
  | Overloaded of { queue_len : int; capacity : int }
  | Timed_out
  | Disconnected

let predict ?timeout_ms c f_bottom f_top =
  match roundtrip c (P.Predict { P.f_bottom; f_top }) timeout_ms with
  | P.Predicted { c_bottom; c_top; cache_hit } ->
      Ok { c_bottom; c_top; cache_hit }
  | P.Overloaded { queue_len; capacity } -> Overloaded { queue_len; capacity }
  | P.Timed_out -> Timed_out
  | r -> fail_reply "predict" r
  | exception Lost_connection -> Disconnected

(* Jittered exponential backoff around [predict].  [Overloaded] and
   [Timed_out] are transient backpressure — the queue drains in
   milliseconds — so a bounded retry loop turns them into successes
   without hammering the daemon: the k-th wait is [base * 2^k] scaled
   by a uniform jitter in [0.5, 1), which decorrelates competing
   clients (all-full-delay retries would re-collide exactly like the
   original burst).  [Disconnected] is treated the same way when the
   client knows how to redial (it came from [connect]): behind a
   balancer, a crashed shard is replaced within a health-check period,
   so redial-and-retry turns a mid-request crash into a success.  A
   [deadline_s] budget caps the whole loop, sleeps are clamped to the
   time remaining, and the last daemon outcome is returned verbatim
   once attempts or budget run out. *)
let retry ?(attempts = 5) ?(base_delay_s = 0.01) ?(max_delay_s = 0.5)
    ?deadline_s ?(seed = 0) ?timeout_ms c f_bottom f_top =
  if attempts < 1 then invalid_arg "Client.retry: attempts < 1";
  let rng = Dco3d_tensor.Rng.create (seed lxor 0x5e7) in
  let started = Unix.gettimeofday () in
  let remaining () =
    match deadline_s with
    | None -> infinity
    | Some budget -> budget -. (Unix.gettimeofday () -. started)
  in
  let rec go k =
    let outcome =
      if c.open_ then predict ?timeout_ms c f_bottom f_top else Disconnected
    in
    match outcome with
    | Ok _ -> outcome
    | Overloaded _ | Timed_out | Disconnected ->
        if k + 1 >= attempts then outcome
        else begin
          let expo = base_delay_s *. (2. ** float_of_int k) in
          let jitter = Dco3d_tensor.Rng.range rng 0.5 1.0 in
          let delay = Float.min max_delay_s expo *. jitter in
          let left = remaining () in
          if left <= 0. then outcome
          else begin
            Thread.delay (Float.min delay left);
            if remaining () <= 0. then outcome
            else begin
              (* A dead connection must be re-established before the
                 next attempt; if the redial fails (fleet mid-restart),
                 keep backing off until attempts run out. *)
              if not c.open_ then ignore (reconnect c);
              go (k + 1)
            end
          end
        end
  in
  go 0

let submit_corpus c req =
  match roundtrip c (P.Corpus_submit req) None with
  | P.Accepted id -> id
  | r -> fail_reply "submit_corpus" r

let poll_corpus c id =
  match roundtrip c (P.Corpus_poll id) None with
  | P.Corpus_status s -> s
  | r -> fail_reply "poll_corpus" r

let wait_corpus ?(poll_interval_s = 0.05) c id =
  let rec go () =
    match poll_corpus c id with
    | P.Corpus_done result -> result
    | P.Corpus_failed msg ->
        raise (Error (Printf.sprintf "corpus job %d failed: %s" id msg))
    | P.Corpus_queued | P.Corpus_running ->
        Thread.delay poll_interval_s;
        go ()
  in
  go ()

let stats c =
  match roundtrip c P.Stats None with
  | P.Stats_reply kv -> kv
  | r -> fail_reply "stats" r
