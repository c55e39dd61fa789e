(* serve-predict: closed-loop load on a real [dco3d serve] daemon.

   The daemon is the repository's own binary, started as a child
   process on a Unix socket inside the working directory and serving
   its seeded untrained f32 network (the model's weights do not change
   the work a forward pass does).  Each connection runs on its own
   thread and sends its next predict only after the previous reply,
   so the offered load is [connections] requests in flight.  Every
   fourth request of a connection repeats one of its own recent inputs,
   which the daemon's LRU (empty at start) answers without a forward
   pass; the rest are fresh seeded feature pairs. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module SiaUNet = Dco3d_nn.Siamese_unet
module Fm = Dco3d_congestion.Feature_maps
module Predictor = Dco3d_core.Predictor
module Server = Dco3d_serve.Server
module Client = Dco3d_serve.Client
module Obs = Dco3d_obs.Obs

(* every fourth request repeats an input *)
let repeat_every = 4

(* repeats pick among a connection's last [recent] fresh inputs *)
let recent = 16
let input_hw = 32

(* distinct inputs re-predicted locally after the window *)
let verify_inputs = 24

let now () = Unix.gettimeofday ()

(* The model [dco3d serve --seed s --input-hw 32] serves without --model. *)
let local_predictor seed =
  let net =
    SiaUNet.create (Rng.create seed)
      { SiaUNet.default_config with SiaUNet.base_channels = 8 }
  in
  { Predictor.net; input_hw; label_scale = 1.0 }

(* Input [id] of a run: a seeded pair of raw feature stacks. *)
let features ~seed ~side id =
  let rng = Rng.create ((seed * 1_000_003) + id) in
  let n = Fm.n_channels * side * side in
  let stack () =
    T.reshape (T.of_array1 (Array.init n (fun _ -> Rng.uniform rng))) [| Fm.n_channels; side; side |]
  in
  let f0 = stack () in
  let f1 = stack () in
  (f0, f1)

let tensor_digest (a, b) =
  let buf = Buffer.create 65536 in
  List.iter
    (fun t ->
      Array.iter (fun d -> Buffer.add_string buf (string_of_int d ^ ";")) (T.shape t);
      for i = 0 to T.numel t - 1 do
        Buffer.add_int64_le buf (Int64.bits_of_float (T.get_flat t i))
      done)
    [ a; b ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

let live = ref []

let daemon_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/dco3d.exe"

let stop d =
  live := List.filter (fun p -> p <> d.pid) !live;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  try Sys.remove d.socket with Sys_error _ -> ()

(* a run that dies half-way must not leave its daemon behind *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let start ~dir ~seed =
  let exe = daemon_exe () in
  if not (Sys.file_exists exe) then failwith ("daemon binary not built: " ^ exe);
  (* relative path: socket paths are length-limited, checkouts are not *)
  let socket = Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let pid =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--socket"; socket; "--seed"; string_of_int seed;
             "--input-hw"; string_of_int input_hw |]
          Unix.stdin null Unix.stderr)
  in
  live := pid :: !live;
  let d = { pid; socket } in
  let deadline = now () +. 60. in
  let rec connect () =
    match Client.connect (Server.Unix_path socket) with
    | c -> c
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (fun p -> p <> pid) !live;
            failwith "dco3d serve exited before listening");
        if now () > deadline then begin
          stop d;
          failwith "dco3d serve did not listen within 60 s"
        end;
        Unix.sleepf 0.01;
        connect ()
  in
  (d, connect ())

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Fun.id
                /. 1024.
            | _ -> scan ()
            | exception End_of_file -> nan
          in
          scan ())

(* ------------------------------------------------------------------ *)
(* Closed-loop load                                                    *)
(* ------------------------------------------------------------------ *)

type sample = {
  lat_ms : float;
  done_s : float;  (** when the reply arrived, in seconds into the window *)
  input : int;
  hit : bool;
  reply : string option;  (** digest of the maps; [None] when refused *)
}

(* Fresh input [j] of connection [cid]. *)
let fresh_id ~cid j = (j * 64) + cid

let connection ~addr ~seed ~side ~start ~deadline ~min_requests cid =
  let c = Client.connect addr in
  let rng = Rng.create ((seed * 7919) + cid) in
  let hist = Array.make recent 0 in
  let fresh = ref 0 and sent = ref 0 in
  let out = ref [] in
  while now () < deadline || !sent < min_requests do
    let id =
      (* a fixed share of repeats: a random one would move throughput
         with the seed, since a hit costs a small part of a miss *)
      if !sent mod repeat_every = repeat_every - 1 then
        hist.(Rng.int rng (min !fresh recent))
      else begin
        let id = fresh_id ~cid !fresh in
        hist.(!fresh mod recent) <- id;
        incr fresh;
        id
      end
    in
    let f0, f1 = features ~seed ~side id in
    let t0 = now () in
    let r = Client.predict c f0 f1 in
    let t1 = now () in
    let lat_ms = (t1 -. t0) *. 1000. and done_s = t1 -. start in
    incr sent;
    out :=
      (match r with
      | Client.Ok { c_bottom; c_top; cache_hit } ->
          { lat_ms; done_s; input = id; hit = cache_hit;
            reply = Some (tensor_digest (c_bottom, c_top)) }
      | Client.Overloaded _ | Client.Timed_out | Client.Disconnected ->
          { lat_ms; done_s; input = id; hit = false; reply = None })
      :: !out
  done;
  Client.close c;
  List.rev !out

let stat name stats = Option.value ~default:0. (List.assoc_opt name stats)

type result = {
  setup_s : float list;
  samples : sample list;
  window_s : float;
  rss_mb : float;
  stats_delta : string -> float;  (** daemon stats over the window *)
  problems : string list;
  digest : string;  (** replies to connection 0's first fresh inputs *)
}

(* [run] sets the daemon up [reps] times (setup_s), keeps the last one
   up for a [seconds]-long closed loop, stops it, then checks every
   reply: repeats of an input must get identical maps, and a spread of
   distinct inputs must match a local [Predictor.predict_batch] of the
   same model bit for bit. *)
let run ~dir ~seed ~side ~connections ~warmup ~reps ~seconds ~min_requests =
  let local = local_predictor seed in
  let problems = ref [] in
  let setup () =
    let t0 = now () in
    let d, c = start ~dir ~seed in
    let fp, _, _ = Client.hello c in
    if fp <> Predictor.fingerprint local then
      problems := "daemon model fingerprint differs from the local model" :: !problems;
    for j = 1 to warmup do
      let f0, f1 = features ~seed:(seed + 104729) ~side j in
      match Client.predict c f0 f1 with
      | Client.Ok _ -> ()
      | _ -> problems := "warm-up request refused" :: !problems
    done;
    (now () -. t0, d, c)
  in
  let setups = ref [] in
  let rec set_up k =
    let s, d, c = setup () in
    setups := s :: !setups;
    if k > 1 then begin
      Client.close c;
      stop d;
      set_up (k - 1)
    end
    else (d, c)
  in
  let d, c = set_up reps in
  let result =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let before = Client.stats c in
        let addr = Server.Unix_path d.socket in
        let t0 = now () in
        let deadline = t0 +. seconds in
        let per_conn = Array.make connections (Ok []) in
        let threads =
          List.init connections (fun cid ->
              Thread.create
                (fun () ->
                  per_conn.(cid) <-
                    (try Ok (connection ~addr ~seed ~side ~start:t0 ~deadline ~min_requests cid)
                     with e -> Error (Printexc.to_string e)))
                ())
        in
        List.iter Thread.join threads;
        let per_conn =
          Array.map
            (function
              | Ok s -> s
              | Error e ->
                  problems := ("connection failed: " ^ e) :: !problems;
                  [])
            per_conn
        in
        let window_s = now () -. t0 in
        let after = Client.stats c in
        Client.close c;
        let rss_mb = peak_rss_mb d.pid in
        (per_conn, window_s, rss_mb, fun k -> stat k after -. stat k before))
  in
  let per_conn, window_s, rss_mb, stats_delta = result in
  let samples = List.concat (Array.to_list per_conn) in
  (* replies: one per input, repeats identical *)
  let replies = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match s.reply with
      | None -> ()
      | Some r -> (
          match Hashtbl.find_opt replies s.input with
          | None -> Hashtbl.replace replies s.input r
          | Some r0 when r0 = r -> ()
          | Some _ ->
              problems :=
                Printf.sprintf "input %d answered with two different maps" s.input
                :: !problems))
    samples;
  let ids = List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) replies []) in
  let n_ids = List.length ids in
  let checked =
    let stride = max 1 (n_ids / verify_inputs) in
    List.filteri (fun i _ -> i mod stride = 0) ids
  in
  let local_maps =
    Predictor.predict_batch local (Array.of_list (List.map (features ~seed ~side) checked))
  in
  List.iteri
    (fun i id ->
      if tensor_digest local_maps.(i) <> Hashtbl.find replies id then
        problems :=
          Printf.sprintf "reply to input %d differs from local Predictor.predict" id
          :: !problems)
    checked;
  let first =
    List.filter_map
      (fun j -> Hashtbl.find_opt replies (fresh_id ~cid:0 j))
      [ 0; 1; 2; 3 ]
  in
  {
    setup_s = !setups;
    samples;
    window_s;
    rss_mb;
    stats_delta;
    problems = List.rev !problems;
    digest = Digest.to_hex (Digest.string (String.concat "," first));
  }

(* In-process [Predictor.predict_batch] of the served model at batch
   sizes 1 and 2, each the median of [reps] calls, and batch 1 again
   inside a traced span (the tracing overhead). *)
let local_batches ~seed ~side ~reps =
  let local = local_predictor seed in
  let a = features ~seed ~side 0 and b = features ~seed ~side 64 in
  let time f =
    Stats.median
      (List.init reps (fun _ ->
           let t0 = now () in
           ignore (f ());
           (now () -. t0) *. 1000.))
  in
  let b1 = time (fun () -> Predictor.predict_batch local [| a |]) in
  let b2 = time (fun () -> Predictor.predict_batch local [| a; b |]) in
  Obs.enable ();
  let traced =
    time (fun () ->
        Obs.with_span Layers.root (fun () -> Predictor.predict_batch local [| a |]))
  in
  Obs.disable ();
  (b1, b2, traced)
