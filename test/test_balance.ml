(* dco3d.serve fleet: LRU evictions, the spill's on-disk layout,
   warm restarts from spill, self-pipe stop latency, and process-level
   balancer failure paths (shard crash mid-stream, drain-while-serving,
   fingerprint routing) against real [dco3d serve --shard-of]
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
(* LRU evictions                                                       *)
(* ------------------------------------------------------------------ *)

let test_lru_put_returns_eviction () =
  let evicted = Alcotest.(option (pair string int)) in
  let c = Lru.create ~capacity:2 in
  Alcotest.(check evicted) "room for a" None (Lru.put c "a" 1);
  Alcotest.(check evicted) "room for b" None (Lru.put c "b" 2);
  (* replacing a resident key is not an eviction *)
  Alcotest.(check evicted) "replace is not evict" None (Lru.put c "a" 10);
  Alcotest.(check evicted) "capacity eviction returns the evicted entry"
    (Some ("b", 2))
    (Lru.put c "c" 3);
  (* clear drops entries without returning them: they were not pushed
     out by hotter traffic, the cache was torn down *)
  Lru.clear c;
  Alcotest.(check evicted) "room again after clear" None (Lru.put c "d" 4);
  Alcotest.(check evicted) "a disabled cache evicts nothing" None
    (Lru.put (Lru.create ~capacity:0) "a" 1)

let test_lru_iter_order () =
  let c = Lru.create ~capacity:4 in
  ignore (Lru.put c "a" 1);
  ignore (Lru.put c "b" 2);
  ignore (Lru.put c "c" 3);
  (* promote "a" so the MRU->LRU order is a, c, b *)
  ignore (Lru.find c "a");
  let seen = ref [] in
  Lru.iter c (fun k v -> seen := (k, v) :: !seen);
  Alcotest.(check (list (pair string int)))
    "iter walks MRU to LRU"
    [ ("a", 1); ("c", 3); ("b", 2) ]
    (List.rev !seen);
  (* iter must not promote: "b" is still the eviction candidate *)
  ignore (Lru.put c "d" 4);
  ignore (Lru.put c "e" 5);
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

(* Every entry the cache evicts is written to the spill exactly once,
   before the reply that evicted it; the drain writes the resident
   rest; a restarted server reads every one of them back. *)
let test_server_spill_every_eviction_once () =
  let predictor = mk_predictor 17 in
  let spill_dir = tmp_name ".spill" in
  Fun.protect ~finally:(fun () -> rm_rf spill_dir) @@ fun () ->
  let rng = Rng.create 37 in
  let n = 6 in
  let inputs =
    Array.init n (fun _ -> (rand_stack rng 8 8, rand_stack rng 8 8))
  in
  let expected =
    Array.map (fun (b, t) -> Predictor.predict predictor b t) inputs
  in
  (* capacity 2, n distinct keys sent one at a time: the first n - 2
     are evicted, once each *)
  let srv = Server.start (server_cfg ~cache_capacity:2 ~spill_dir ()) predictor in
  let c = Client.connect (Server.bound_addr srv) in
  Array.iteri
    (fun i (b, t) ->
      let _, _, hit = predict_ok (Printf.sprintf "first life %d" i) c b t in
      Alcotest.(check bool) (Printf.sprintf "first life %d misses" i) false hit)
    inputs;
  Client.close c;
  Alcotest.(check (float 0.)) "each eviction written once"
    (float_of_int (n - 2))
    (stat srv "spill_writes");
  Server.stop srv;
  Alcotest.(check (float 0.)) "drain writes the two resident entries"
    (float_of_int n) (stat srv "spill_writes");
  let spilled =
    Sys.readdir spill_dir |> Array.to_list
    |> List.filter (fun e -> Filename.check_suffix e ".spill")
  in
  Alcotest.(check int) "one file per key" n (List.length spilled);
  (* second life, with room for every key: each one is a spill hit *)
  let srv2 =
    Server.start (server_cfg ~cache_capacity:n ~spill_dir ()) predictor
  in
  let c2 = Client.connect (Server.bound_addr srv2) in
  Fun.protect
    ~finally:(fun () ->
      Client.close c2;
      Server.stop srv2)
    (fun () ->
      Array.iteri
        (fun i (b, t) ->
          let rb, rt, hit = predict_ok (Printf.sprintf "reload %d" i) c2 b t in
          Alcotest.(check bool) (Printf.sprintf "reload %d hits" i) true hit;
          let eb, et = expected.(i) in
          check_bits (Printf.sprintf "reload %d bottom" i) eb rb;
          check_bits (Printf.sprintf "reload %d top" i) et rt)
        inputs;
      Alcotest.(check (float 0.)) "every key read back from the spill"
        (float_of_int n) (stat srv2 "spill_hits");
      Alcotest.(check (float 0.)) "reading back evicts nothing" 0.
        (stat srv2 "spill_writes"))

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

(* Run [dco3d serve --socket <fresh path> extra...] and require it to
   exit nonzero at startup without ever binding its socket. *)
let check_serve_refuses what extra =
  let sock = tmp_name ".sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process dco3d_exe
      (Array.append [| dco3d_exe; "serve"; "--socket"; sock |] extra)
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
        Alcotest.failf "serve %s kept running" what
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
        Alcotest.failf "serve %s died on a signal" what
  in
  Alcotest.(check bool) (what ^ ": exits nonzero at startup") true (wait () <> 0);
  Alcotest.(check bool) (what ^ ": never bound its socket") false
    (Sys.file_exists sock)

let test_serve_rejects_bad_input_hw () =
  (* 30 is not divisible by 2^depth = 4: the daemon must refuse to
     start instead of answering every predict with an error *)
  check_serve_refuses "--input-hw 30" [| "--input-hw"; "30" |];
  (* a model file in the retired int8 format is refused at load *)
  let model = tmp_name ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove model with Sys_error _ -> ())
    (fun () ->
      Test_core.write_retired_predictor model;
      check_serve_refuses "--model <retired format>" [| "--model"; model |])

(* Slot [i] serves the untrained network drawn from [seed_of i]. *)
let fleet_argv ~ctl ~seed_of ~input_hw ?spill_root () i =
  let base =
    [
      dco3d_exe;
      "serve";
      "--shard-of";
      ctl;
      "--shard-id";
      string_of_int i;
      "--seed";
      string_of_int (seed_of i);
      "--input-hw";
      string_of_int input_hw;
      "--linger-ms";
      "10";
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

let with_fleet ?spill_root ~seed_of ~input_hw n f =
  if not (Sys.file_exists dco3d_exe) then
    Alcotest.failf "missing shard binary %s" dco3d_exe;
  let addr = Server.Unix_path (tmp_name ".sock") in
  let ctl = tmp_name ".ctl" in
  let cfg = Balance.default_config ~address:addr ~ctl_path:ctl ~n_shards:n in
  let b =
    Balance.start cfg
      ~argv_of:(fleet_argv ~ctl ~seed_of ~input_hw ?spill_root ())
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
  (* slot 1 serves another seed, so the two slots differ in fingerprint *)
  let seed_of i = if i = 1 then seed + 1 else seed in
  with_fleet ~seed_of ~input_hw 2 @@ fun _b addr ->
  let predictor = cli_predictor ~seed ~input_hw in
  let other = cli_predictor ~seed:(seed + 1) ~input_hw in
  let fp_other = Predictor.fingerprint other in
  Alcotest.(check bool) "the slots' fingerprints differ" true
    (fp_other <> Predictor.fingerprint predictor);
  (* pinning a fingerprint routes to the shard serving it *)
  let c_pin = Client.connect addr in
  let fp, shard, _ = Client.hello ~want:(Proto.Want_fingerprint fp_other) c_pin in
  Alcotest.(check string) "fingerprint pin honoured" fp_other fp;
  Alcotest.(check int) "which is slot 1" 1 shard;
  (* any live shard answers a Want_any hello, with its own fingerprint *)
  let c_any = Client.connect addr in
  let fp_any, shard_any, _ = Client.hello ~want:Proto.Want_any c_any in
  Alcotest.(check string) "Want_any reports the serving shard's model"
    (Predictor.fingerprint (if shard_any = 1 then other else predictor))
    fp_any;
  Client.close c_any;
  (* clients without a hello route within slot 0's fingerprint group
     and stay bit-identical to a local Predictor.predict *)
  let rng = Rng.create 31 in
  for i = 0 to 3 do
    let b, t = (rand_stack rng 8 10, rand_stack rng 8 10) in
    let eb, et = Predictor.predict predictor b t in
    let c = Client.connect addr in
    let rb, rt, _ = predict_ok (Printf.sprintf "no hello %d" i) c b t in
    check_bits (Printf.sprintf "no hello %d bottom" i) eb rb;
    check_bits (Printf.sprintf "no hello %d top" i) et rt;
    Client.close c
  done;
  (* the pinned connection keeps serving slot 1's model *)
  let b1, t1 = (rand_stack rng 8 10, rand_stack rng 8 10) in
  let eb, et = Predictor.predict other b1 t1 in
  let rb, rt, _ = predict_ok "pinned predict" c_pin b1 t1 in
  check_bits "pinned bottom" eb rb;
  check_bits "pinned top" et rt;
  Client.close c_pin

let test_fleet_crash_drain_spill () =
  let seed = 7 and input_hw = 16 in
  let spill_root = tmp_name ".fleet-spill" in
  with_fleet ~spill_root ~seed_of:(fun _ -> seed) ~input_hw 2
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
        Alcotest.test_case "put returns its eviction" `Quick
          test_lru_put_returns_eviction;
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
        Alcotest.test_case "every eviction spilled once" `Quick
          test_server_spill_every_eviction_once;
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
