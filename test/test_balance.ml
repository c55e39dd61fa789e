(* dco3d.serve fleet: LRU eviction hooks, the spill's on-disk layout,
   warm restarts from spill, self-pipe stop latency, and process-level
   balancer failure paths (shard crash mid-stream, drain-while-serving,
   numeric-path routing) against real [dco3d serve --shard-of]
   children. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Obs = Dco3d_obs.Obs
module SiaUNet = Dco3d_nn.Siamese_unet
module Predictor = Dco3d_core.Predictor
module Lru = Dco3d_serve.Lru
module Proto = Dco3d_serve.Protocol
module Server = Dco3d_serve.Server
module Client = Dco3d_serve.Client
module Balance = Dco3d_serve.Balance

let tmp_name =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dco3d_balance_test_%d_%d%s" (Unix.getpid ()) !n suffix)

let rm_rf path =
  let rec go p =
    match Unix.lstat p with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Sys.remove p
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  go path

let rand_stack rng ny nx = T.rand_uniform rng ~lo:0. ~hi:4. [| 8; ny; nx |]

let check_bits what expected got =
  Alcotest.(check int)
    (what ^ " length")
    (Array.length expected.T.data)
    (Array.length got.T.data);
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float got.T.data.(i) then
        Alcotest.failf "%s: bit mismatch at %d: %h vs %h" what i e
          got.T.data.(i))
    expected.T.data

(* ------------------------------------------------------------------ *)
(* LRU eviction hook                                                   *)
(* ------------------------------------------------------------------ *)

let test_lru_on_evict_capacity_only () =
  let evicted = ref [] in
  let c = Lru.create ~capacity:2 in
  Lru.set_on_evict c (fun k v -> evicted := (k, v) :: !evicted);
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Alcotest.(check (list (pair string int))) "nothing evicted yet" [] !evicted;
  (* replacing a resident key is not an eviction *)
  Lru.put c "a" 10;
  Alcotest.(check (list (pair string int))) "replace is not evict" [] !evicted;
  Lru.put c "c" 3;
  Alcotest.(check (list (pair string int)))
    "capacity eviction fires with the evicted value"
    [ ("b", 2) ] !evicted;
  (* clear drops entries without spilling them: they were not pushed
     out by hotter traffic, the cache was torn down *)
  Lru.clear c;
  Alcotest.(check (list (pair string int))) "clear is silent" [ ("b", 2) ]
    !evicted

let test_lru_iter_order () =
  let c = Lru.create ~capacity:4 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "c" 3;
  (* promote "a" so the MRU->LRU order is a, c, b *)
  ignore (Lru.find c "a");
  let seen = ref [] in
  Lru.iter c (fun k v -> seen := (k, v) :: !seen);
  Alcotest.(check (list (pair string int)))
    "iter walks MRU to LRU"
    [ ("a", 1); ("c", 3); ("b", 2) ]
    (List.rev !seen);
  (* iter must not promote: "b" is still the eviction candidate *)
  Lru.put c "d" 4;
  Lru.put c "e" 5;
  Alcotest.(check bool) "b evicted first" false (Lru.mem c "b")

(* ------------------------------------------------------------------ *)
(* The spill store as the server opens it                              *)
(* ------------------------------------------------------------------ *)

module Store = Dco3d_framing.Framing.Store

let pair_of_seed seed =
  let rng = Rng.create seed in
  (rand_stack rng 5 7, rand_stack rng 5 7)

let spill_file dir key =
  Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".spill")

let test_spill_roundtrip () =
  let dir = tmp_name ".spill" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  let s = Server.open_spill dir in
  let b, t = pair_of_seed 3 in
  Alcotest.(check bool) "put succeeds" true (Store.put s "key-1" (b, t));
  Alcotest.(check int) "one entry on disk" 1 (Store.count s);
  Alcotest.(check bool) "named MD5-hex(key).spill" true
    (Sys.file_exists (spill_file dir "key-1"));
  (match Store.find s "key-1" with
  | Some (gb, gt) ->
      check_bits "bottom survives disk" b gb;
      check_bits "top survives disk" t gt
  | None -> Alcotest.fail "spilled entry not found");
  Alcotest.(check bool) "missing key misses" true (Store.find s "nope" = None);
  Alcotest.(check int) "serve/spill_hit counted" 1
    (Obs.counter_value "serve/spill_hit");
  Alcotest.(check int) "serve/spill_miss counted" 1
    (Obs.counter_value "serve/spill_miss");
  (* a fresh handle on the same dir sees the entry: restart persistence *)
  let s2 = Server.open_spill dir in
  Alcotest.(check bool) "entry survives re-open" true
    (Store.find s2 "key-1" <> None)

let test_spill_rejects_corruption () =
  let dir = tmp_name ".spill" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s = Server.open_spill dir in
  Alcotest.(check bool) "put" true (Store.put s "key-1" (pair_of_seed 4));
  let path = spill_file dir "key-1" in
  (* flip a byte in the middle of the body: digest check must fail *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 64 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  Alcotest.(check bool) "corrupt entry is a miss" true
    (Store.find s "key-1" = None);
  Alcotest.(check bool) "corrupt file deleted" false (Sys.file_exists path);
  Alcotest.(check int) "store empty again" 0 (Store.count s)

let test_spill_rejects_wrong_key () =
  let dir = tmp_name ".spill" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s = Server.open_spill dir in
  Alcotest.(check bool) "put" true (Store.put s "key-a" (pair_of_seed 5));
  (* simulate a hash-slot mixup: the file lands under key-b's name but
     still stores "key-a" inside; the stored-key check must reject it *)
  Sys.rename (spill_file dir "key-a") (spill_file dir "key-b");
  Alcotest.(check bool) "foreign entry is a miss" true
    (Store.find s "key-b" = None);
  Alcotest.(check bool) "foreign file deleted" false
    (Sys.file_exists (spill_file dir "key-b"));
  (* truncated file: framing check must reject without raising *)
  let path = spill_file dir "key-c" in
  let oc = open_out_bin path in
  output_string oc "DCO3D";
  close_out oc;
  Alcotest.(check bool) "truncated entry is a miss" true
    (Store.find s "key-c" = None);
  Alcotest.(check bool) "truncated file deleted" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Server + spill: warm restart of a single daemon                     *)
(* ------------------------------------------------------------------ *)

let mk_predictor ?(input_hw = 8) ?(base_channels = 4) seed =
  let cfg = { SiaUNet.default_config with SiaUNet.base_channels } in
  {
    Predictor.net = SiaUNet.create (Rng.create seed) cfg;
    input_hw;
    label_scale = 1.0;
  }

let server_cfg ?(cache_capacity = 128) ?spill_dir ?(shard_id = 0) () =
  {
    Server.address = Server.Unix_path (tmp_name ".sock");
    queue_capacity = 64;
    max_batch = 8;
    batch_linger_ms = 10.;
    cache_capacity;
    numeric = `F32;
    spill_dir;
    route_cache_dir = None;
    corpus_dir = None;
    shard_id;
  }

let stat srv name =
  match List.assoc_opt name (Server.stats srv) with
  | Some v -> v
  | None -> Alcotest.failf "stat %s missing" name

let predict_ok what c b t =
  match Client.predict c b t with
  | Client.Ok { c_bottom; c_top; cache_hit } -> (c_bottom, c_top, cache_hit)
  | Client.Overloaded _ -> Alcotest.failf "%s: overloaded" what
  | Client.Timed_out -> Alcotest.failf "%s: timed out" what
  | Client.Disconnected -> Alcotest.failf "%s: disconnected" what

let test_server_spill_warm_restart () =
  let predictor = mk_predictor 11 in
  let spill_dir = tmp_name ".spill" in
  Fun.protect ~finally:(fun () -> rm_rf spill_dir) @@ fun () ->
  let rng = Rng.create 23 in
  let inputs = Array.init 3 (fun _ -> (rand_stack rng 8 8, rand_stack rng 8 8)) in
  let expected =
    Array.map (fun (b, t) -> Predictor.predict predictor b t) inputs
  in
  (* first life: capacity 2, three distinct keys -> one capacity
     eviction spills to disk, the rest flush on drain *)
  let cfg = server_cfg ~cache_capacity:2 ~spill_dir () in
  let srv = Server.start cfg predictor in
  let addr = Server.bound_addr srv in
  let c = Client.connect addr in
  Array.iteri
    (fun i (b, t) ->
      let rb, rt, _ = predict_ok (Printf.sprintf "warmup %d" i) c b t in
      let eb, et = expected.(i) in
      check_bits (Printf.sprintf "warmup %d bottom" i) eb rb;
      check_bits (Printf.sprintf "warmup %d top" i) et rt)
    inputs;
  Alcotest.(check bool) "capacity eviction spilled" true
    (stat srv "spill_writes" >= 1.);
  Client.close c;
  Server.stop srv;
  (* drain flushed the two resident entries too: all three on disk,
     named MD5-hex(key).spill and framed under the spill magic *)
  let spilled =
    Sys.readdir spill_dir |> Array.to_list
    |> List.filter (fun e -> Filename.check_suffix e ".spill")
  in
  Alcotest.(check int) "hot set flushed on drain" 3 (List.length spilled);
  Array.iteri
    (fun i (b, t) ->
      let key =
        Proto.predict_key { Proto.f_bottom = b; f_top = t }
        ^ ":" ^ Server.fingerprint srv
      in
      let path = Dco3d_framing.Framing.path_of ~dir:spill_dir ~suffix:".spill" key in
      let ic = open_in_bin path in
      let head = really_input_string ic 14 in
      close_in ic;
      Alcotest.(check string) (Printf.sprintf "entry %d framed as a spill" i)
        "DCO3D-SPILL-V1" head)
    inputs;
  (* second life: fresh process state, same spill dir.  Every key is a
     digest-verified disk hit, bit-identical, no forward pass. *)
  let srv2 = Server.start (server_cfg ~cache_capacity:2 ~spill_dir ()) predictor in
  let c2 = Client.connect (Server.bound_addr srv2) in
  Fun.protect
    ~finally:(fun () ->
      Client.close c2;
      Server.stop srv2)
    (fun () ->
      Array.iteri
        (fun i (b, t) ->
          let rb, rt, hit = predict_ok (Printf.sprintf "reload %d" i) c2 b t in
          Alcotest.(check bool)
            (Printf.sprintf "reload %d is a cache hit" i)
            true hit;
          let eb, et = expected.(i) in
          check_bits (Printf.sprintf "reload %d bottom" i) eb rb;
          check_bits (Printf.sprintf "reload %d top" i) et rt)
        inputs;
      Alcotest.(check bool) "hits came from spill" true
        (stat srv2 "spill_hits" >= 3.))

(* An entry written in the spill's on-disk layout by an older daemon —
   "DCO3D-SPILL-V1" | MD5(body) | Marshal (key, (c_bottom, c_top)) under
   MD5-hex(key).spill — is served as a cache hit, verbatim. *)
let test_server_spill_planted_entry () =
  let predictor = mk_predictor 19 in
  let spill_dir = tmp_name ".spill" in
  Fun.protect ~finally:(fun () -> rm_rf spill_dir) @@ fun () ->
  let rng = Rng.create 31 in
  let b, t = (rand_stack rng 6 6, rand_stack rng 6 6) in
  (* deliberately not the model's output: only the disk can supply it *)
  let pb, pt = (rand_stack rng 6 6, rand_stack rng 6 6) in
  let srv = Server.start (server_cfg ~spill_dir ()) predictor in
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Server.stop srv)
  @@ fun () ->
  let key =
    Proto.predict_key { Proto.f_bottom = b; f_top = t }
    ^ ":" ^ Server.fingerprint srv
  in
  Alcotest.(check bool) "planted" true
    (Dco3d_framing.Framing.write_file ~magic:"DCO3D-SPILL-V1"
       ~path:(Dco3d_framing.Framing.path_of ~dir:spill_dir ~suffix:".spill" key)
       ~body:(Marshal.to_string (key, (pb, pt)) []));
  let rb, rt, hit = predict_ok "planted" c b t in
  Alcotest.(check bool) "planted entry is a hit" true hit;
  check_bits "planted bottom" pb rb;
  check_bits "planted top" pt rt;
  Alcotest.(check (float 0.)) "one spill hit" 1. (stat srv "spill_hits")

let test_server_spill_corrupt_recompute () =
  let predictor = mk_predictor 13 in
  let spill_dir = tmp_name ".spill" in
  Fun.protect ~finally:(fun () -> rm_rf spill_dir) @@ fun () ->
  let rng = Rng.create 29 in
  let b, t = (rand_stack rng 6 6, rand_stack rng 6 6) in
  let eb, et = Predictor.predict predictor b t in
  let srv = Server.start (server_cfg ~spill_dir ()) predictor in
  let c = Client.connect (Server.bound_addr srv) in
  ignore (predict_ok "seed entry" c b t);
  Client.close c;
  Server.stop srv;
  (* corrupt every spilled file *)
  Array.iter
    (fun e ->
      if Filename.check_suffix e ".spill" then begin
        let path = Filename.concat spill_dir e in
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
        ignore (Unix.lseek fd 40 Unix.SEEK_SET);
        ignore (Unix.write fd (Bytes.of_string "\x00\x01\x02") 0 3);
        Unix.close fd
      end)
    (Sys.readdir spill_dir);
  let srv2 = Server.start (server_cfg ~spill_dir ()) predictor in
  let c2 = Client.connect (Server.bound_addr srv2) in
  Fun.protect
    ~finally:(fun () ->
      Client.close c2;
      Server.stop srv2)
    (fun () ->
      let rb, rt, hit = predict_ok "recompute" c2 b t in
      Alcotest.(check bool) "corrupt spill is not a hit" false hit;
      check_bits "recomputed bottom" eb rb;
      check_bits "recomputed top" et rt;
      Alcotest.(check (float 0.)) "no spill hits" 0. (stat srv2 "spill_hits"))

(* ------------------------------------------------------------------ *)
(* Self-pipe wakeup: stop must not wait out a poll interval            *)
(* ------------------------------------------------------------------ *)

let test_stop_latency () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  let predictor = mk_predictor 17 in
  (* the accept loop blocks in select until the self-pipe wakes it, so
     an idle server stops in microseconds, not a 100 ms poll tick.
     min-of-3 keeps a loaded CI machine from failing the bound. *)
  let best = ref infinity in
  for _ = 1 to 3 do
    let srv = Server.start (server_cfg ()) predictor in
    (* prove the server is actually accepting before timing the stop *)
    let c = Client.connect (Server.bound_addr srv) in
    ignore (predict_ok "wake" c (T.zeros [| 8; 4; 4 |]) (T.zeros [| 8; 4; 4 |]));
    Client.close c;
    let t0 = Unix.gettimeofday () in
    Server.stop srv;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  if !best >= 0.08 then
    Alcotest.failf "stop took %.0f ms; self-pipe wakeup should beat the old \
                    100 ms poll" (!best *. 1000.);
  (* the batch span aggregate is queryable for smoke checks *)
  match Obs.span_stat_of "serve/batch" with
  | Some s ->
      Alcotest.(check bool) "batch span recorded" true (s.Obs.sp_count >= 3)
  | None -> Alcotest.fail "serve/batch span missing from stage profile"

(* ------------------------------------------------------------------ *)
(* Balancer process tests                                              *)
(* ------------------------------------------------------------------ *)

(* the binary the balancer spawns as shards is a declared test dep
   next door in the build tree; resolve it relative to this executable
   so both [dune runtest] and [dune exec] find it *)
let dco3d_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/dco3d.exe"

(* must mirror bin/dco3d.ml's untrained_predictor so bit-identity
   against the spawned shards can be checked in-process *)
let cli_predictor ~seed ~input_hw =
  let net =
    SiaUNet.create (Rng.create seed)
      { SiaUNet.default_config with SiaUNet.base_channels = 8 }
  in
  Predictor.make net ~input_hw ~label_scale:1.0

let test_serve_rejects_bad_input_hw () =
  (* 30 is not divisible by 2^depth = 4: the daemon must refuse to
     start instead of answering every predict with an error *)
  let sock = tmp_name ".sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process dco3d_exe
      [| dco3d_exe; "serve"; "--socket"; sock; "--input-hw"; "30" |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        (try Sys.remove sock with Sys_error _ -> ());
        Alcotest.fail "serve --input-hw 30 kept running"
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
        Alcotest.fail "serve --input-hw 30 died on a signal"
  in
  Alcotest.(check bool) "exits nonzero at startup" true (wait () <> 0);
  Alcotest.(check bool) "never bound its socket" false (Sys.file_exists sock)

let fleet_argv ~ctl ~seed ~input_hw ~numeric_of ?spill_root () i =
  let base =
    [
      dco3d_exe;
      "serve";
      "--shard-of";
      ctl;
      "--shard-id";
      string_of_int i;
      "--seed";
      string_of_int seed;
      "--input-hw";
      string_of_int input_hw;
      "--linger-ms";
      "10";
      "--numeric";
      numeric_of i;
    ]
  in
  let full =
    match spill_root with
    | Some root ->
        base
        @ [ "--spill-dir"; Filename.concat root (Printf.sprintf "shard-%d" i) ]
    | None -> base
  in
  Array.of_list full

let with_fleet ?spill_root ~numeric_of ~seed ~input_hw n f =
  if not (Sys.file_exists dco3d_exe) then
    Alcotest.failf "missing shard binary %s" dco3d_exe;
  let addr = Server.Unix_path (tmp_name ".sock") in
  let ctl = tmp_name ".ctl" in
  let cfg = Balance.default_config ~address:addr ~ctl_path:ctl ~n_shards:n in
  let b =
    Balance.start cfg
      ~argv_of:(fleet_argv ~ctl ~seed ~input_hw ~numeric_of ?spill_root ())
  in
  Fun.protect
    ~finally:(fun () ->
      Balance.stop b;
      match spill_root with Some r -> rm_rf r | None -> ())
    (fun () ->
      if not (Balance.await_live ~timeout_s:120. b n) then
        Alcotest.failf "fleet of %d never came live" n;
      f b (Balance.bound_addr b))

let retry_ok what c b t =
  match Client.retry ~attempts:10 ~seed:7 c b t with
  | Client.Ok { c_bottom; c_top; cache_hit } -> (c_bottom, c_top, cache_hit)
  | Client.Overloaded _ -> Alcotest.failf "%s: overloaded after retries" what
  | Client.Timed_out -> Alcotest.failf "%s: timed out after retries" what
  | Client.Disconnected -> Alcotest.failf "%s: still disconnected" what

let slot_pid b idx =
  match List.find_opt (fun s -> s.Balance.si_idx = idx) (Balance.slots b) with
  | Some s -> s.Balance.si_pid
  | None -> Alcotest.failf "slot %d missing" idx

let test_fleet_routing_and_bits () =
  let seed = 7 and input_hw = 16 in
  let numeric_of i = if i = 1 then "i8" else "f32" in
  with_fleet ~numeric_of ~seed ~input_hw 2 @@ fun _b addr ->
  (* explicit numeric routing via hello *)
  let c_i8 = Client.connect addr in
  let _fp, shard_i8, numeric_i8 =
    Client.hello ~want:(Proto.Want_numeric "i8") c_i8
  in
  Alcotest.(check string) "i8 request lands on the i8 shard" "i8" numeric_i8;
  Alcotest.(check int) "which is slot 1" 1 shard_i8;
  let c_f32 = Client.connect addr in
  let fp_f32, shard_f32, numeric_f32 =
    Client.hello ~want:(Proto.Want_numeric "f32") c_f32
  in
  Alcotest.(check string) "f32 request lands on the f32 shard" "f32"
    numeric_f32;
  Alcotest.(check int) "which is slot 0" 0 shard_f32;
  (* pinning an exact fingerprint also routes *)
  let c_fp = Client.connect addr in
  let fp2, _, _ = Client.hello ~want:(Proto.Want_fingerprint fp_f32) c_fp in
  Alcotest.(check string) "fingerprint pin honoured" fp_f32 fp2;
  Client.close c_fp;
  (* legacy clients (no hello) route within the primary f32 group and
     stay bit-identical to a local Predictor.predict *)
  let predictor = cli_predictor ~seed ~input_hw in
  let rng = Rng.create 31 in
  for i = 0 to 3 do
    let b, t = (rand_stack rng 8 10, rand_stack rng 8 10) in
    let eb, et = Predictor.predict predictor b t in
    let c = Client.connect addr in
    let rb, rt, _ = predict_ok (Printf.sprintf "legacy %d" i) c b t in
    check_bits (Printf.sprintf "legacy %d bottom" i) eb rb;
    check_bits (Printf.sprintf "legacy %d top" i) et rt;
    Client.close c
  done;
  (* the already-helloed connections keep serving on their shard *)
  let b1, t1 = (rand_stack rng 8 10, rand_stack rng 8 10) in
  ignore (predict_ok "pinned i8 predict" c_i8 b1 t1);
  ignore (predict_ok "pinned f32 predict" c_f32 b1 t1);
  Client.close c_i8;
  Client.close c_f32

let test_fleet_crash_drain_spill () =
  let seed = 7 and input_hw = 16 in
  let spill_root = tmp_name ".fleet-spill" in
  with_fleet ~spill_root
    ~numeric_of:(fun _ -> "f32")
    ~seed ~input_hw 2
  @@ fun b addr ->
  let predictor = cli_predictor ~seed ~input_hw in
  let rng = Rng.create 37 in
  let fb, ft = (rand_stack rng 9 9, rand_stack rng 9 9) in
  let eb, et = Predictor.predict predictor fb ft in
  (* warm one key through the fleet *)
  let c0 = Client.connect addr in
  let wb, _, _ = predict_ok "warm" c0 fb ft in
  check_bits "warm bottom" eb wb;
  Client.close c0;
  (* shard crash: SIGKILL both shard processes so the routed one is
     dead whichever the key hashed to.  Client.retry redials through
     the balancer, which respawns the slot; the request completes
     transparently with identical bits. *)
  let pid0 = slot_pid b 0 and pid1 = slot_pid b 1 in
  Unix.kill pid0 Sys.sigkill;
  Unix.kill pid1 Sys.sigkill;
  let c1 = Client.connect addr in
  let cb, ct, _ = retry_ok "post-crash" c1 fb ft in
  check_bits "post-crash bottom" eb cb;
  check_bits "post-crash top" et ct;
  Client.close c1;
  if not (Balance.await_live ~timeout_s:120. b 2) then
    Alcotest.fail "crashed shards never respawned";
  let s0 = slot_pid b 0 in
  Alcotest.(check bool) "slot 0 is a new process" true (s0 <> pid0);
  (* drain one shard while the fleet keeps serving: requests ride the
     remaining shard (or retry through the respawn window) *)
  Balance.drain_shard b 0;
  let c2 = Client.connect addr in
  let db, _, _ = retry_ok "during drain" c2 fb ft in
  check_bits "during-drain bottom" eb db;
  Client.close c2;
  if not (Balance.await_live ~timeout_s:120. b 2) then
    Alcotest.fail "drained shard never came back";
  (* the drained shard flushed its hot set; after the whole fleet rolls
     the key must come back as a digest-verified spill hit *)
  if not (Balance.rolling_restart ~timeout_s:120. b) then
    Alcotest.fail "rolling restart timed out";
  let c3 = Client.connect addr in
  let pb, pt, warm = retry_ok "post-roll" c3 fb ft in
  Alcotest.(check bool) "post-roll predict is a warm hit" true warm;
  check_bits "post-roll bottom" eb pb;
  check_bits "post-roll top" et pt;
  Client.close c3

let suites =
  [
    ( "balance lru hooks",
      [
        Alcotest.test_case "on_evict fires on capacity only" `Quick
          test_lru_on_evict_capacity_only;
        Alcotest.test_case "iter order, no promotion" `Quick
          test_lru_iter_order;
      ] );
    ( "balance spill",
      [
        Alcotest.test_case "roundtrip and reopen" `Quick test_spill_roundtrip;
        Alcotest.test_case "digest rejects corruption" `Quick
          test_spill_rejects_corruption;
        Alcotest.test_case "stored key and framing verified" `Quick
          test_spill_rejects_wrong_key;
        Alcotest.test_case "server warm restart from spill" `Quick
          test_server_spill_warm_restart;
        Alcotest.test_case "corrupt spill recomputes" `Quick
          test_server_spill_corrupt_recompute;
        Alcotest.test_case "planted entry in the old layout is served" `Quick
          test_server_spill_planted_entry;
      ] );
    ( "balance wakeup",
      [ Alcotest.test_case "stop beats the old poll tick" `Quick
          test_stop_latency ] );
    ( "balance fleet",
      [
        Alcotest.test_case "hello routing and bit identity" `Quick
          test_fleet_routing_and_bits;
        Alcotest.test_case "crash, drain, spill warm restart" `Quick
          test_fleet_crash_drain_spill;
        Alcotest.test_case "serve rejects bad --input-hw" `Quick
          test_serve_rejects_bad_input_hw;
      ] );
  ]
