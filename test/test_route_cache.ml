(* Tests for the content-addressed route cache.  The store under it
   (framing, corruption handling, the LRU bound) has its own suite in
   test_store.ml; these pin what is route-specific.

   The load-bearing property: a cache replay is bit-identical to the
   cold route — same Router.digest — and so is a warm-started re-route
   of an unchanged placement, at DCO3D_JOBS=1 and 4.  Everything else
   is corruption handling (corrupt/truncated/foreign files are misses
   that self-delete) and key semantics (sub-GCell jitter hits, a
   GCell-crossing move or a different config misses). *)

module Gen = Dco3d_netlist.Generator
module Fp = Dco3d_place.Floorplan
module Pl = Dco3d_place.Placement
module Placer = Dco3d_place.Placer
module Params = Dco3d_place.Params
module R = Dco3d_route.Router
module Rc = Dco3d_route.Route_cache
module Store = Dco3d_framing.Framing.Store

let placed ?(scale = 0.02) ?(seed = 5) name =
  let nl = Gen.generate ~scale ~seed (Gen.profile name) in
  let fp = Fp.create nl in
  Placer.global_place ~seed:1 ~params:Params.default nl fp

let with_jobs n f =
  Dco3d_parallel.Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Dco3d_parallel.Pool.set_jobs 1) f

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dco3d_rc_test_%d_%d" (Unix.getpid ()) !n)
    in
    (* fresh every time: a leftover from a crashed run must not leak
       hits into this one *)
    if Sys.file_exists d then
      Array.iter
        (fun f -> Sys.remove (Filename.concat d f))
        (Sys.readdir d);
    d

module T = Dco3d_tensor.Tensor

let tensor_eq a b =
  T.shape a = T.shape b
  && Array.init (T.numel a) (T.get_flat a)
     = Array.init (T.numel b) (T.get_flat b)

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".route")
  |> List.map (Filename.concat dir)

(* ------------------------------------------------------------------ *)

let test_replay_bit_identical () =
  let p = placed "DMA" in
  let cfg = R.calibrated_config p in
  let cache = Rc.create (tmp_dir ()) in
  Alcotest.(check (option string)) "empty cache misses" None
    (Option.map R.digest (Rc.find cache ~config:cfg p));
  let cold = Rc.find_or_route ~cache ~config:cfg p in
  Alcotest.(check int) "one entry" 1 (Store.count cache);
  (* the replay, the cold route, and a warm-started re-route of the
     unchanged placement must all carry one digest — at jobs=1 and 4 *)
  let replay1 =
    match Rc.find cache ~config:cfg p with
    | Some r -> r
    | None -> Alcotest.fail "expected a hit"
  in
  Alcotest.(check string) "replay == cold, jobs=1" (R.digest cold)
    (R.digest replay1);
  let replay4 =
    with_jobs 4 (fun () ->
        match Rc.find cache ~config:cfg p with
        | Some r -> r
        | None -> Alcotest.fail "expected a hit")
  in
  Alcotest.(check string) "replay == cold, jobs=4" (R.digest cold)
    (R.digest replay4);
  let warm = R.route ~config:cfg ~warm_start:(replay1, p) p in
  Alcotest.(check string) "warm(replay, unchanged) == cold" (R.digest cold)
    (R.digest warm);
  let warm4 =
    with_jobs 4 (fun () -> R.route ~config:cfg ~warm_start:(replay4, p) p)
  in
  Alcotest.(check string) "warm(replay, unchanged) == cold, jobs=4"
    (R.digest cold) (R.digest warm4)

let test_replay_fields_roundtrip () =
  (* beyond the digest: tensors, arrays and the stored config must
     survive the marshalling *)
  let p = placed "DMA" in
  let cfg = R.calibrated_config p in
  let cache = Rc.create (tmp_dir ()) in
  let cold = Rc.find_or_route ~cache ~config:cfg p in
  let r =
    match Rc.find cache ~config:cfg p with
    | Some r -> r
    | None -> Alcotest.fail "expected a hit"
  in
  Alcotest.(check int) "overflow" cold.R.overflow_total r.R.overflow_total;
  Alcotest.(check int) "iterations" cold.R.iterations_run r.R.iterations_run;
  Alcotest.(check (float 0.)) "wirelength" cold.R.wirelength r.R.wirelength;
  Alcotest.(check bool) "config" true (cold.R.config = r.R.config);
  Alcotest.(check bool) "net_edges" true (cold.R.net_edges = r.R.net_edges);
  Alcotest.(check bool) "history" true (cold.R.history = r.R.history);
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "congestion.(%d)" i)
        true
        (tensor_eq c r.R.congestion.(i)))
    cold.R.congestion

let test_key_sub_gcell_invariant () =
  let p = placed "DMA" in
  let cfg = R.calibrated_config p in
  let fp = p.Pl.fp in
  let k0 = Rc.key ~config:cfg p in
  (* nudge every cell well below a GCell pitch: same bins, same key *)
  let q = Pl.copy p in
  let eps = 0.01 *. Float.min (Fp.gcell_w fp) (Fp.gcell_h fp) in
  for c = 0 to Array.length q.Pl.x - 1 do
    let gx, gy = Fp.gcell_of fp q.Pl.x.(c) q.Pl.y.(c) in
    let gx', gy' = Fp.gcell_of fp (q.Pl.x.(c) +. eps) (q.Pl.y.(c) +. eps) in
    if gx = gx' && gy = gy' then begin
      q.Pl.x.(c) <- q.Pl.x.(c) +. eps;
      q.Pl.y.(c) <- q.Pl.y.(c) +. eps
    end
  done;
  Alcotest.(check string) "sub-GCell jitter keeps the key" k0
    (Rc.key ~config:cfg q);
  (* a perturbation that crosses GCell boundaries must change it *)
  let moved = Placer.perturb ~seed:9 ~fraction:0.3 ~max_dist:(2. *. Fp.gcell_w fp) p in
  Alcotest.(check bool) "GCell-crossing move changes the key" false
    (String.equal k0 (Rc.key ~config:cfg moved));
  (* so must the config *)
  Alcotest.(check bool) "config changes the key" false
    (String.equal k0
       (Rc.key ~config:{ cfg with R.max_iterations = cfg.R.max_iterations + 1 } p))

let test_different_config_misses () =
  let p = placed "DMA" in
  let cfg = R.calibrated_config p in
  let cache = Rc.create (tmp_dir ()) in
  let _ = Rc.find_or_route ~cache ~config:cfg p in
  let probe = { cfg with R.max_iterations = 1 } in
  Alcotest.(check bool) "probe config misses the full-budget entry" true
    (Rc.find cache ~config:probe p = None)

(* corruption: every damaged entry must read back as a miss AND be
   deleted, and a subsequent find_or_route must repopulate it *)
let damage_cases =
  [
    ("truncated", fun path ->
        let len = (Unix.stat path).Unix.st_size in
        Unix.truncate path (len / 2));
    ("flipped body byte", fun path ->
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let len = (Unix.stat path).Unix.st_size in
            ignore (Unix.lseek fd (len - 1) Unix.SEEK_SET);
            let b = Bytes.make 1 '\xff' in
            ignore (Unix.write fd b 0 1)));
    ("foreign magic", fun path ->
        let oc = open_out_bin path in
        output_string oc "DCO3D-SPILL-V1 something else entirely";
        close_out oc);
    ("empty", fun path ->
        let oc = open_out_bin path in
        close_out oc);
  ]

let test_corrupt_entries_are_misses () =
  let p = placed "DMA" in
  let cfg = R.calibrated_config p in
  List.iter
    (fun (label, damage) ->
      let cache = Rc.create (tmp_dir ()) in
      let cold = Rc.find_or_route ~cache ~config:cfg p in
      (match entry_files (Store.dir cache) with
      | [ path ] -> damage path
      | l -> Alcotest.failf "%s: expected 1 entry, found %d" label (List.length l));
      Alcotest.(check bool) (label ^ " reads as a miss") true
        (Rc.find cache ~config:cfg p = None);
      Alcotest.(check int) (label ^ " self-deletes") 0 (Store.count cache);
      let again = Rc.find_or_route ~cache ~config:cfg p in
      Alcotest.(check string) (label ^ " repopulates bit-identically")
        (R.digest cold) (R.digest again);
      Alcotest.(check int) (label ^ " entry back") 1 (Store.count cache))
    damage_cases

let test_foreign_key_collision_is_miss () =
  (* an intact entry whose *stored* key disagrees with the filename's
     (someone renamed a file, or a hash collision in a shared dir) must
     be discarded, not replayed *)
  let p = placed "DMA" in
  let cfg = R.calibrated_config p in
  let cache = Rc.create (tmp_dir ()) in
  let _ = Rc.find_or_route ~cache ~config:cfg p in
  let probe = { cfg with R.max_iterations = 1 } in
  (match entry_files (Store.dir cache) with
  | [ path ] ->
      let target =
        Dco3d_framing.Framing.path_of ~dir:(Store.dir cache) ~suffix:".route"
          (Rc.key ~config:probe p)
      in
      (* keep a copy under the probe key's filename: framing intact,
         stored key wrong *)
      let ic = open_in_bin path in
      let body = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin target in
      output_string oc body;
      close_out oc
  | l -> Alcotest.failf "expected 1 entry, found %d" (List.length l));
  Alcotest.(check bool) "renamed entry is a miss" true
    (Rc.find cache ~config:probe p = None);
  Alcotest.(check int) "impostor deleted, original kept" 1 (Store.count cache);
  Alcotest.(check bool) "original still hits" true
    (Rc.find cache ~config:cfg p <> None)

(* The layout earlier releases stored: each tensor flattened to a
   (shape, data) pair. *)
type old_flat = {
  x_overflow_total : int;
  x_overflow_h : int;
  x_overflow_v : int;
  x_overflow_via : int;
  x_overflow_gcell_pct : float;
  x_wirelength : float;
  x_congestion : (int array * float array) array;
  x_utilization : (int array * float array) array;
  x_net_length : float array;
  x_iterations_run : int;
  x_net_edges : int array array;
  x_history : float array;
  x_config : R.config;
}

let old_flat_of_result ?(flatten = fun t -> (T.shape t, Array.copy t.T.data))
    (r : R.result) =
  {
    x_overflow_total = r.R.overflow_total;
    x_overflow_h = r.R.overflow_h;
    x_overflow_v = r.R.overflow_v;
    x_overflow_via = r.R.overflow_via;
    x_overflow_gcell_pct = r.R.overflow_gcell_pct;
    x_wirelength = r.R.wirelength;
    x_congestion = Array.map flatten r.R.congestion;
    x_utilization = Array.map flatten r.R.utilization;
    x_net_length = r.R.net_length;
    x_iterations_run = r.R.iterations_run;
    x_net_edges = r.R.net_edges;
    x_history = r.R.history;
    x_config = r.R.config;
  }

let plant cache key v =
  Dco3d_framing.Framing.save ~magic:"DCO3D-ROUTE-V1"
    ~path:(Dco3d_framing.Framing.path_of ~dir:(Store.dir cache) ~suffix:".route" key)
    (key, v)

let test_old_layout_entry_replays () =
  let p = placed "DMA" in
  let cfg = R.calibrated_config p in
  let cold = R.route ~config:cfg p in
  let cache = Rc.create (tmp_dir ()) in
  plant cache (Rc.key ~config:cfg p) (old_flat_of_result cold);
  let r =
    match Rc.find cache ~config:cfg p with
    | Some r -> r
    | None -> Alcotest.fail "the old-layout entry must hit"
  in
  Alcotest.(check string) "replay == cold route" (R.digest cold) (R.digest r);
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "utilization.(%d)" i)
        true
        (tensor_eq c r.R.utilization.(i)))
    cold.R.utilization;
  Alcotest.(check string) "find_or_route replays it" (R.digest cold)
    (R.digest (Rc.find_or_route ~cache ~config:cfg p))

let test_misshaped_tensor_is_miss () =
  (* a digest-valid entry whose congestion map holds one value fewer
     than its shape says must not replay *)
  let p = placed "DMA" in
  let cfg = R.calibrated_config p in
  let cold = R.route ~config:cfg p in
  let cache = Rc.create (tmp_dir ()) in
  let short t =
    let d = t.T.data in
    (T.shape t, Array.sub d 0 (Array.length d - 1))
  in
  plant cache (Rc.key ~config:cfg p) (old_flat_of_result ~flatten:short cold);
  Alcotest.(check bool) "mis-shaped entry is a miss" true
    (Rc.find cache ~config:cfg p = None);
  Alcotest.(check string) "find_or_route re-routes it" (R.digest cold)
    (R.digest (Rc.find_or_route ~cache ~config:cfg p));
  Alcotest.(check bool) "and overwrites it" true
    (Rc.find cache ~config:cfg p <> None)

let test_dataset_build_cached_identical () =
  (* Dataset.build through a cache must produce the same samples as
     without one — first run populates, second run replays *)
  let module Dataset = Dco3d_core.Dataset in
  let nl = Gen.generate ~scale:0.02 ~seed:5 (Gen.profile "DMA") in
  let fp = Fp.create nl in
  let base = Placer.global_place ~seed:1 ~params:Params.default nl fp in
  let cfg = R.calibrated_config base in
  let cache = Rc.create (tmp_dir ()) in
  let plain = Dataset.build ~n_samples:3 ~seed:2 ~route_cfg:cfg nl fp in
  let cached = Dataset.build ~n_samples:3 ~seed:2 ~route_cache:cache ~route_cfg:cfg nl fp in
  Alcotest.(check bool) "cache populated" true (Store.count cache > 0);
  let replayed = Dataset.build ~n_samples:3 ~seed:2 ~route_cache:cache ~route_cfg:cfg nl fp in
  let digest (d : Dataset.t) =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            (Array.map
               (fun (s : Dataset.sample) ->
                 let flat t = Array.init (T.numel t) (T.get_flat t) in
                 (flat s.Dataset.c_bottom, flat s.Dataset.c_top))
               d.Dataset.samples)
            []))
  in
  Alcotest.(check string) "cached build == plain build" (digest plain)
    (digest cached);
  Alcotest.(check string) "replayed build == plain build" (digest plain)
    (digest replayed)

let suites =
  [
    ( "route.cache",
      [
        Alcotest.test_case "replay bit-identical (cold/warm, jobs 1 and 4)"
          `Quick test_replay_bit_identical;
        Alcotest.test_case "replay fields round-trip" `Quick
          test_replay_fields_roundtrip;
        Alcotest.test_case "key: sub-GCell invariant, bin/config sensitive"
          `Quick test_key_sub_gcell_invariant;
        Alcotest.test_case "different config misses" `Quick
          test_different_config_misses;
        Alcotest.test_case "corrupt entries are self-deleting misses" `Quick
          test_corrupt_entries_are_misses;
        Alcotest.test_case "foreign stored key is a miss" `Quick
          test_foreign_key_collision_is_miss;
        Alcotest.test_case "entry in the old flat layout replays" `Quick
          test_old_layout_entry_replays;
        Alcotest.test_case "mis-shaped tensor is a miss" `Quick
          test_misshaped_tensor_is_miss;
        Alcotest.test_case "dataset build through cache is identical" `Slow
          test_dataset_build_cached_identical;
      ] );
  ]
