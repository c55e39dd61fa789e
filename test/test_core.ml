(* Tests for the DCO-3D core: dataset construction, Algorithm-1
   training, the differentiable soft maps with the Eq.-6 backward,
   the Algorithm-2 losses and optimizer, and the TCL export. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module V = Dco3d_autodiff.Value
module Nl = Dco3d_netlist.Netlist
module Cl = Dco3d_netlist.Cell_lib
module Gen = Dco3d_netlist.Generator
module Fp = Dco3d_place.Floorplan
module Pl = Dco3d_place.Placement
module Placer = Dco3d_place.Placer
module Router = Dco3d_route.Router
module Csr = Dco3d_graph.Csr
module Dataset = Dco3d_core.Dataset
module Predictor = Dco3d_core.Predictor
module Sm = Dco3d_core.Soft_maps
module Losses = Dco3d_core.Losses
module Spreader = Dco3d_core.Spreader
module Dco = Dco3d_core.Dco
module Tcl = Dco3d_core.Tcl_export
module SiaUNet = Dco3d_nn.Siamese_unet
module Pool = Dco3d_parallel.Pool

let with_exact_jobs n f =
  let saved = Pool.jobs () in
  Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs ~exact:true saved) f

(* A predictor header in the retired int8 format: its old magic, then a
   well-formed (resolution, label scale) pair. *)
let write_retired_predictor path =
  let oc = open_out_bin path in
  output_string oc "DCO3D-QPRED-V1";
  Marshal.to_channel oc ((32, 1.0) : int * float) [];
  close_out oc

(* shared tiny environment *)
let env =
  lazy
    (let nl = Gen.generate ~scale:0.015 ~seed:5 (Gen.profile "DMA") in
     let fp = Fp.create ~gcell_nx:16 ~gcell_ny:16 nl in
     let base =
       Placer.global_place ~seed:1 ~params:Dco3d_place.Params.default nl fp
     in
     let route_cfg = Router.calibrated_config base in
     (nl, fp, base, route_cfg))

let tiny_dataset =
  lazy
    (let nl, fp, _, route_cfg = Lazy.force env in
     Dataset.build ~n_samples:6 ~seed:2 ~route_cfg nl fp)

(* ------------------------------------------------------------------ *)
(* Dataset                                                             *)
(* ------------------------------------------------------------------ *)

let test_dataset_shapes () =
  let d = Lazy.force tiny_dataset in
  Alcotest.(check int) "sample count" 6 (Array.length d.Dataset.samples);
  Array.iter
    (fun s ->
      Alcotest.(check (array int)) "features" [| 8; 16; 16 |]
        (T.shape s.Dataset.f_bottom);
      Alcotest.(check (array int)) "labels" [| 16; 16 |]
        (T.shape s.Dataset.c_top);
      Alcotest.(check bool) "labels non-negative" true
        (T.min_elt s.Dataset.c_bottom >= 0.))
    d.Dataset.samples

let test_dataset_deterministic () =
  let nl, fp, _, route_cfg = Lazy.force env in
  let a = Dataset.build ~n_samples:2 ~seed:9 ~route_cfg nl fp in
  let b = Dataset.build ~n_samples:2 ~seed:9 ~route_cfg nl fp in
  Alcotest.(check bool) "same labels" true
    (T.approx_equal a.Dataset.samples.(0).Dataset.c_bottom
       b.Dataset.samples.(0).Dataset.c_bottom)

let test_dataset_diverse () =
  let d = Lazy.force tiny_dataset in
  (* different Table-I samples must give different features *)
  Alcotest.(check bool) "diverse samples" false
    (T.approx_equal d.Dataset.samples.(0).Dataset.f_bottom
       d.Dataset.samples.(1).Dataset.f_bottom)

let test_dataset_split () =
  let d = Lazy.force tiny_dataset in
  let train, test = Dataset.split ~test_fraction:0.33 ~seed:1 d in
  Alcotest.(check int) "test size" 2 (Array.length test.Dataset.samples);
  Alcotest.(check int) "train size" 4 (Array.length train.Dataset.samples)

let test_dataset_augment8 () =
  let d = Lazy.force tiny_dataset in
  let augmented = Dataset.augment8 d.Dataset.samples.(0) in
  Alcotest.(check int) "8 variants" 8 (List.length augmented);
  (* all variants conserve total label mass *)
  let mass s = T.sum s.Dataset.c_bottom +. T.sum s.Dataset.c_top in
  let m0 = mass d.Dataset.samples.(0) in
  List.iter
    (fun s -> Alcotest.(check (float 1e-9)) "mass conserved" m0 (mass s))
    augmented

let test_dataset_merge () =
  let d = Lazy.force tiny_dataset in
  let m = Dataset.merge [ d; d ] in
  Alcotest.(check int) "merged" 12 (Array.length m.Dataset.samples)

let test_label_scale_positive () =
  let d = Lazy.force tiny_dataset in
  Alcotest.(check bool) "positive" true (Dataset.label_scale d > 0.)

(* ------------------------------------------------------------------ *)
(* Predictor (Algorithm 1)                                             *)
(* ------------------------------------------------------------------ *)

let trained =
  lazy
    (let d = Lazy.force tiny_dataset in
     let train, test = Dataset.split ~test_fraction:0.33 ~seed:1 d in
     Predictor.train ~epochs:6 ~input_hw:16 ~base_channels:4 ~augment:false
       ~seed:3 ~train ~test ())

let test_training_reduces_loss () =
  let _, report = Lazy.force trained in
  let first = report.Predictor.train_loss.(0) in
  let last = report.Predictor.train_loss.(report.Predictor.epochs - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "train loss %.4f -> %.4f" first last)
    true (last < first)

let test_train_rejects_bad_input_hw () =
  (* 30 is not divisible by 2^depth = 4: the check must fire before the
     first epoch, not inside a max-pool mid-training *)
  let d = Lazy.force tiny_dataset in
  let train, test = Dataset.split ~test_fraction:0.33 ~seed:1 d in
  match
    Predictor.train ~epochs:1 ~input_hw:30 ~base_channels:4 ~augment:false
      ~train ~test ()
  with
  | _ -> Alcotest.fail "trained at an indivisible resolution"
  | exception Invalid_argument msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S names the resolution check" msg)
        true (contains msg "divisible")

let test_predict_shapes_and_sign () =
  let t, _ = Lazy.force trained in
  let d = Lazy.force tiny_dataset in
  let s = d.Dataset.samples.(0) in
  let p0, p1 = Predictor.predict t s.Dataset.f_bottom s.Dataset.f_top in
  Alcotest.(check (array int)) "gcell resolution" [| 16; 16 |] (T.shape p0);
  Alcotest.(check bool) "non-negative overflow" true
    (T.min_elt p0 >= 0. && T.min_elt p1 >= 0.)

let test_evaluate_metrics_range () =
  let t, _ = Lazy.force trained in
  let d = Lazy.force tiny_dataset in
  let metrics = Predictor.evaluate t d in
  Alcotest.(check int) "two dies per sample" 12 (List.length metrics);
  List.iter
    (fun (nrmse, ssim) ->
      Alcotest.(check bool) "nrmse >= 0" true (nrmse >= 0.);
      Alcotest.(check bool) "ssim in range" true (ssim >= -1. && ssim <= 1.))
    metrics

let test_predictor_save_load () =
  let t, _ = Lazy.force trained in
  let d = Lazy.force tiny_dataset in
  let s = d.Dataset.samples.(0) in
  let path = Filename.temp_file "dco3d_pred" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      if Sys.file_exists (path ^ ".net") then Sys.remove (path ^ ".net"))
    (fun () ->
      Predictor.save t path;
      let t' = Predictor.load path in
      let a, _ = Predictor.predict t s.Dataset.f_bottom s.Dataset.f_top in
      let b, _ = Predictor.predict t' s.Dataset.f_bottom s.Dataset.f_top in
      Alcotest.(check bool) "same predictions" true (T.approx_equal a b))

let test_predictor_load_errors () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (* missing file *)
  (match Predictor.load "/nonexistent/dco3d-no-such-predictor.bin" with
  | _ -> Alcotest.fail "expected Load_error on missing file"
  | exception Predictor.Load_error msg ->
      Alcotest.(check bool) "missing: names the file" true
        (contains msg "no-such-predictor"));
  (* well-formed header whose companion weights file is absent: the
     SiaUNet failure must surface as Predictor.Load_error *)
  let path = Filename.temp_file "dco3d_pred" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "DCO3D-PREDICTOR-V1";
      Marshal.to_channel oc ((32, 1.0) : int * float) [];
      close_out oc;
      match Predictor.load path with
      | _ -> Alcotest.fail "expected Load_error on missing .net"
      | exception Predictor.Load_error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S names the .net file" msg)
            true
            (contains msg (path ^ ".net")));
  (* truncated header *)
  let path = Filename.temp_file "dco3d_pred" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "DCO3D-PREDICTOR-V1";
      close_out oc;
      match Predictor.load path with
      | _ -> Alcotest.fail "expected Load_error on truncated file"
      | exception Predictor.Load_error msg ->
          Alcotest.(check bool) "truncated: names the file" true
            (contains msg path));
  (* a header in the retired int8 predictor format is refused on its
     magic, before anything behind it is decoded *)
  let path = Filename.temp_file "dco3d_pred" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_retired_predictor path;
      match Predictor.load path with
      | _ -> Alcotest.fail "expected Load_error on the retired format"
      | exception Predictor.Load_error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "retired format: %S says bad file magic" msg)
            true
            (contains msg "bad file magic"))

(* The serve cache key, pinned: it covers every weight bit and the
   seeded draw order, and must not depend on the schedule. *)
let test_golden_fingerprint () =
  List.iter
    (fun jobs ->
      with_exact_jobs jobs (fun () ->
          let net =
            SiaUNet.create (Rng.create 0)
              { SiaUNet.default_config with base_channels = 8 }
          in
          let p = { Predictor.net; input_hw = 32; label_scale = 1.0 } in
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d: fingerprint" jobs)
            "1e06471a6b29c84e0fd15c14e5a7c781" (Predictor.fingerprint p)))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Soft maps (section IV-A + Eq. 6)                                    *)
(* ------------------------------------------------------------------ *)

(* hand-built two-cell netlist for exact gradient checks *)
let tiny_pair () =
  let m = Cl.find "INV_X1" in
  let nets =
    [|
      { Nl.net_id = 0; net_name = "n0"; driver = Nl.Cell 0;
        sinks = [| Nl.Cell 1 |]; is_clock = false };
    |]
  in
  let nl =
    { Nl.design = "tiny"; masters = [| m; m |]; nets; ios = [||];
      cell_fanin = [| [||]; [| 0 |] |]; cell_fanout = [| 0; -1 |] }
  in
  let fp = { Fp.width = 8.; height = 8.; gcell_nx = 4; gcell_ny = 4; n_rows = 8 } in
  let p = Pl.create nl fp in
  p.Pl.x.(0) <- 1.3;
  p.Pl.y.(0) <- 1.7;
  p.Pl.x.(1) <- 5.9;
  p.Pl.y.(1) <- 6.3;
  p

let soft_loss p wmap xt yt zt =
  let x = V.param (T.copy xt) and y = V.param (T.copy yt) and z = V.param (T.copy zt) in
  let f0, f1 = Sm.build ~placement:p ~x ~y ~z ~nx:4 ~ny:4 () in
  (V.add (V.dot f0 (V.const wmap)) (V.scale 2. (V.dot f1 (V.const wmap))), x, y, z)

let test_soft_maps_match_hard_at_binary_z () =
  (* with z exactly 0/1 the soft maps reduce to the hard feature maps
     up to the splat kernel: total mass per channel must agree *)
  let _, _, base, _ = Lazy.force env in
  let p = base in
  let n = Nl.n_cells p.Pl.nl in
  let x = V.const (T.of_array1 p.Pl.x) in
  let y = V.const (T.of_array1 p.Pl.y) in
  let z = V.const (T.init [| n |] (fun i -> float_of_int p.Pl.tier.(i.(0)))) in
  let f0, f1 = Sm.build ~placement:p ~x ~y ~z ~nx:16 ~ny:16 () in
  let h0, h1 = Dco3d_congestion.Feature_maps.both_dies p ~nx:16 ~ny:16 in
  List.iter
    (fun (soft, hard, die) ->
      for ch = 0 to 6 do
        let ms = T.sum (T.channel (V.data soft) ch) in
        let mh = T.sum (T.channel hard ch) in
        let denom = Float.max 1. mh in
        if abs_float (ms -. mh) /. denom > 0.02 then
          Alcotest.failf "die %d channel %d mass: soft %.3f vs hard %.3f" die ch
            ms mh
      done)
    [ (f0, h0, 0); (f1, h1, 1) ]

let test_soft_maps_exact_gradients () =
  (* the minimal clean case must match central differences exactly *)
  let p = tiny_pair () in
  let x0 = T.of_array1 p.Pl.x and y0 = T.of_array1 p.Pl.y in
  let z0 = T.of_array1 [| 0.3; 0.7 |] in
  let rng = Rng.create 7 in
  (* the PinRUDY channels use a documented stop-gradient on the net
     scale, so the exactness check covers the other channels (the
     thermal plane is a frozen constant — zeros here — so it cannot
     perturb the check either way) *)
  let wmap =
    T.init [| 8; 4; 4 |] (fun i ->
        if i.(0) = 4 || i.(0) = 5 then 0. else Rng.gaussian rng)
  in
  let l, x, y, z = soft_loss p wmap x0 y0 z0 in
  V.backward l;
  let eps = 1e-6 in
  let fd base i rebuild =
    let tp = T.copy base and tm = T.copy base in
    T.set_flat tp i (T.get_flat base i +. eps);
    T.set_flat tm i (T.get_flat base i -. eps);
    let lp, _, _, _ = rebuild tp and lm, _, _, _ = rebuild tm in
    (T.get_flat (V.data lp) 0 -. T.get_flat (V.data lm) 0) /. (2. *. eps)
  in
  for c = 0 to 1 do
    Alcotest.(check (float 1e-3)) "dx"
      (fd x0 c (fun t -> soft_loss p wmap t y0 z0))
      (T.get_flat (V.grad x) c);
    Alcotest.(check (float 1e-3)) "dy"
      (fd y0 c (fun t -> soft_loss p wmap x0 t z0))
      (T.get_flat (V.grad y) c);
    Alcotest.(check (float 1e-3)) "dz"
      (fd z0 c (fun t -> soft_loss p wmap x0 y0 t))
      (T.get_flat (V.grad z) c)
  done

(* The soft-map forward and the Eq.-6 backward pinned bit for bit on a
   fixed DMA placement: z in (0, 1), a fixed cotangent, one net moved
   into the top-right corner with every pin on one spot (narrower than
   min_span, its widened bbox clamped to the last GCell column and
   row) and one cell pushed outside the die (its pins clamped into it).
   The pins are MD5s of the float bits of both stacks and of the x, y,
   z gradients, at jobs 1 and 4. *)
let soft_maps_pinned_digests =
  [
    ("f_bottom", "ab0b99d15f1ff75c78c31fd7407b9cda");
    ("f_top", "bb51fbb1fe6cf3d5d746a7a61b74146a");
    ("grad x", "6a8c82b4fdfc39d6e9575f703fbe5082");
    ("grad y", "bf8db095be590d3c836fc16cc61b53c2");
    ("grad z", "f8cdec7d88ced16f700026fdfd817caf");
  ]

let test_soft_maps_pinned_bits () =
  let nl, fp, base, _ = Lazy.force env in
  let n = Nl.n_cells nl in
  let nets = Array.of_list (Nl.signal_nets nl) in
  let movable = function Nl.Cell c -> not (Nl.is_macro nl c) | Nl.Io _ -> false in
  let pins (net : Nl.net) = Array.append [| net.Nl.driver |] net.Nl.sinks in
  let xs = Array.copy base.Pl.x and ys = Array.copy base.Pl.y in
  let narrow =
    match Array.find_opt (fun net -> Array.for_all movable (pins net)) nets with
    | Some net -> net
    | None -> Alcotest.fail "no net with only movable cells"
  in
  Array.iter
    (function
      | Nl.Cell c ->
          xs.(c) <- fp.Fp.width -. 0.02;
          ys.(c) <- fp.Fp.height -. 0.04
      | Nl.Io _ -> ())
    (pins narrow);
  let outside =
    match
      Array.find_opt
        (fun net -> net != narrow && Array.exists (function Nl.Io _ -> true | _ -> false) (pins net))
        nets
    with
    | Some net -> net
    | None -> Alcotest.fail "no net with an IO pin"
  in
  (match
     Array.find_opt
       (fun e -> movable e && not (Array.mem e (pins narrow)))
       (pins outside)
   with
  | Some (Nl.Cell c) ->
      xs.(c) <- -0.5;
      ys.(c) <- fp.Fp.height +. 0.7
  | _ -> Alcotest.fail "the IO net has no movable cell");
  let rng = Rng.create 23 in
  let zs = Array.init n (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)) in
  let w0 = T.randn rng [| 8; 16; 16 |] and w1 = T.randn rng [| 8; 16; 16 |] in
  let digest t =
    let b = Buffer.create (8 * T.numel t) in
    for i = 0 to T.numel t - 1 do
      Buffer.add_int64_le b (Int64.bits_of_float (T.get_flat t i))
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter
    (fun jobs ->
      with_exact_jobs jobs @@ fun () ->
      let x = V.param (T.of_array1 xs) and y = V.param (T.of_array1 ys) in
      let z = V.param (T.of_array1 zs) in
      let f0, f1 = Sm.build ~placement:base ~x ~y ~z ~nx:16 ~ny:16 () in
      V.backward (V.add (V.dot f0 (V.const w0)) (V.dot f1 (V.const w1)));
      List.iter2
        (fun (what, pinned) t ->
          let got = digest t in
          if got <> pinned then
            Alcotest.failf "jobs %d: %s digest %s, pinned %s" jobs what got pinned)
        soft_maps_pinned_digests
        [ V.data f0; V.data f1; V.grad x; V.grad y; V.grad z ])
    [ 1; 4 ]

(* The Eq.-6 backward keeps its per-net sums in locals: its minor-heap
   allocation does not grow with the net count.  Two netlists with the
   same 300 cells and 10 or 200 nets run the same tape (every n- or
   grid-sized array is larger than the minor heap's limit, so only
   records and closures land there); a few words per net would show
   as a difference in the thousands. *)
let test_soft_maps_backward_allocation () =
  let n = 300 in
  let m = Cl.find "INV_X1" in
  let fp = { Fp.width = 16.; height = 16.; gcell_nx = 8; gcell_ny = 8; n_rows = 16 } in
  let backward_words n_nets =
    let nets =
      Array.init n_nets (fun i ->
          { Nl.net_id = i; net_name = Printf.sprintf "n%d" i; driver = Nl.Cell (i mod n);
            sinks = [| Nl.Cell ((i + 1) mod n); Nl.Cell ((i + 7) mod n) |];
            is_clock = false })
    in
    let nl =
      { Nl.design = "alloc"; masters = Array.make n m; nets; ios = [||];
        cell_fanin = Array.make n [||]; cell_fanout = Array.make n (-1) }
    in
    let p = Pl.create nl fp in
    let rng = Rng.create 29 in
    let coord () = T.init [| n |] (fun _ -> 16. *. Rng.uniform rng) in
    let x = V.param (coord ()) and y = V.param (coord ()) in
    let z = V.param (T.init [| n |] (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng))) in
    let f0, f1 = Sm.build ~placement:p ~x ~y ~z ~nx:16 ~ny:16 () in
    let w = V.const (T.randn rng [| 8; 16; 16 |]) in
    let l = V.add (V.dot f0 w) (V.dot f1 w) in
    let w0 = Gc.minor_words () in
    V.backward l;
    Gc.minor_words () -. w0
  in
  ignore (backward_words 10);
  let few = backward_words 10 and many = backward_words 200 in
  if many -. few > 16. then
    Alcotest.failf "backward minor words grow with the net count: %.0f at 10 nets, %.0f at 200"
      few many

let test_soft_maps_descent_direction () =
  (* On a full random design the RUDY backward is a sub-gradient at
     ties; it must still be a descent direction: moving against it must
     reduce the loss. *)
  let _, _, base, _ = Lazy.force env in
  let p = base in
  let n = Nl.n_cells p.Pl.nl in
  let rng = Rng.create 11 in
  let x0 = T.init [| n |] (fun i -> p.Pl.x.(i.(0)) +. (0.011 *. Rng.uniform rng)) in
  let y0 = T.init [| n |] (fun i -> p.Pl.y.(i.(0)) +. (0.011 *. Rng.uniform rng)) in
  let z0 = T.init [| n |] (fun _ -> 0.2 +. (0.6 *. Rng.uniform rng)) in
  let wmap = T.map (fun v -> abs_float v) (T.randn (Rng.create 13) [| 8; 16; 16 |]) in
  let build xt yt zt =
    let x = V.param (T.copy xt) and y = V.param (T.copy yt) and z = V.param (T.copy zt) in
    let f0, f1 = Sm.build ~placement:p ~x ~y ~z ~nx:16 ~ny:16 () in
    (V.add (V.dot f0 (V.const wmap)) (V.dot f1 (V.const wmap)), x, y, z)
  in
  let l, x, y, z = build x0 y0 z0 in
  let l0 = T.get_flat (V.data l) 0 in
  V.backward l;
  let step = 1e-4 in
  let move base g =
    T.map2 (fun b gv -> b -. (step *. gv)) base g
  in
  let l', _, _, _ =
    build (move x0 (V.grad x)) (move y0 (V.grad y)) (move z0 (V.grad z))
  in
  let l1 = T.get_flat (V.data l') 0 in
  Alcotest.(check bool)
    (Printf.sprintf "descent %.6f -> %.6f" l0 l1)
    true (l1 < l0)

let prop_soft_density_mass_conserved =
  (* for ANY z, the per-cell density mass splits between the dies but
     its total is invariant: sum over both dies of the density channel
     equals total (non-macro) cell area / bin area + macro channel *)
  QCheck.Test.make ~name:"soft density mass is z-invariant" ~count:10
    (QCheck.int_bound 10_000) (fun seed ->
      let _, _, base, _ = Lazy.force env in
      let p = base in
      let n = Nl.n_cells p.Pl.nl in
      let rng = Rng.create seed in
      let x = V.const (T.of_array1 p.Pl.x) in
      let y = V.const (T.of_array1 p.Pl.y) in
      let z = V.const (T.init [| n |] (fun _ -> Rng.uniform rng)) in
      let f0, f1 = Sm.build ~placement:p ~x ~y ~z ~nx:16 ~ny:16 () in
      let mass f = T.sum (T.channel (V.data f) 0) in
      let total = mass f0 +. mass f1 in
      (* reference at z = tier *)
      let z_hard =
        V.const (T.init [| n |] (fun i -> float_of_int p.Pl.tier.(i.(0))))
      in
      let g0, g1 = Sm.build ~placement:p ~x ~y ~z:z_hard ~nx:16 ~ny:16 () in
      let total_ref = mass g0 +. mass g1 in
      abs_float (total -. total_ref) < 1e-6 *. Float.max 1. total_ref)

let prop_soft_rudy3d_symmetric =
  (* the 3D RUDY channel is always identical on both dies *)
  QCheck.Test.make ~name:"soft 3D RUDY identical on both dies" ~count:5
    (QCheck.int_bound 10_000) (fun seed ->
      let _, _, base, _ = Lazy.force env in
      let p = base in
      let n = Nl.n_cells p.Pl.nl in
      let rng = Rng.create seed in
      let x = V.const (T.of_array1 p.Pl.x) in
      let y = V.const (T.of_array1 p.Pl.y) in
      let z = V.const (T.init [| n |] (fun _ -> Rng.uniform rng)) in
      let f0, f1 = Sm.build ~placement:p ~x ~y ~z ~nx:16 ~ny:16 () in
      T.approx_equal ~eps:1e-9
        (T.channel (V.data f0) 3)
        (T.channel (V.data f1) 3))

let prop_cutsize_bounds =
  (* Eq. 7 is non-negative and zero on a cut-free partition *)
  QCheck.Test.make ~name:"cutsize loss bounds" ~count:20
    (QCheck.int_bound 10_000) (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 6 in
      (* random graph *)
      let coo = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Rng.uniform rng < 0.4 then coo := (i, j, 1.) :: (j, i, 1.) :: !coo
        done
      done;
      let adj = Csr.create ~n_rows:n ~n_cols:n !coo in
      let z = V.const (T.init [| n |] (fun _ -> Rng.uniform rng)) in
      let l = T.get_flat (V.data (Losses.cutsize ~graph:(Losses.cut_graph adj) z)) 0 in
      let all_bottom = V.const (T.zeros [| n |]) in
      let l0 = T.get_flat (V.data (Losses.cutsize ~graph:(Losses.cut_graph adj) all_bottom)) 0 in
      l >= -1e-9 && abs_float l0 < 1e-6)

let test_hard_assignment () =
  let z = T.of_array1 [| 0.1; 0.5; 0.9; 0.49999 |] in
  Alcotest.(check (array int)) "threshold at 0.5" [| 0; 1; 1; 0 |]
    (Sm.hard_assignment z)

(* ------------------------------------------------------------------ *)
(* Losses                                                              *)
(* ------------------------------------------------------------------ *)

let test_cutsize_loss_matches_hard_cut () =
  (* binary z: the soft cut count must equal the hard edge cut *)
  let adj =
    Csr.create ~n_rows:4 ~n_cols:4
      [ (0, 1, 1.); (1, 0, 1.); (1, 2, 1.); (2, 1, 1.); (2, 3, 1.); (3, 2, 1.) ]
  in
  (* partition {0,1 | 2,3}: one cut edge (1-2); deg_T = 2*1 (edge 0-1 both
     dirs), deg_B = 2*1 *)
  let z = V.const (T.of_array1 [| 0.; 0.; 1.; 1. |]) in
  let l = Losses.cutsize ~graph:(Losses.cut_graph adj) z in
  (* cut = z'A1 - z'Az = 3 - 2 = 1 (the single cut edge), deg(T) =
     z'Az = 2 and deg(B) = 2 (each intra-die edge counted in both
     directions): loss = 1/2 + 1/2 = 1 *)
  Alcotest.(check (float 1e-4)) "eq7 at binary z" 1. (T.get_flat (V.data l) 0)

let test_cutsize_gradient_reduces_cut () =
  (* gradient descent on the cut loss must drive a cut edge's endpoints
     to the same side *)
  let adj = Csr.create ~n_rows:2 ~n_cols:2 [ (0, 1, 1.); (1, 0, 1.) ] in
  let zt = T.of_array1 [| -0.2; 0.2 |] in
  let z = V.param zt in
  let l = Losses.cutsize ~graph:(Losses.cut_graph adj) (V.sigmoid z) in
  ignore (V.data l);
  V.backward l;
  let g = V.grad z in
  (* pushing along -g must move z0 and z1 toward each other *)
  Alcotest.(check bool) "gradients pull together" true
    (T.get_flat g 0 *. T.get_flat g 1 < 0.)

let test_overlap_loss_detects_overfill () =
  let mk v = V.const (T.full [| 8; 4; 4 |] v) in
  let low = Losses.overlap ~target:0.8 (mk 0.5) (mk 0.5) in
  let high = Losses.overlap ~target:0.8 (mk 1.2) (mk 1.2) in
  Alcotest.(check (float 1e-9)) "under target" 0. (T.get_flat (V.data low) 0);
  Alcotest.(check bool) "over target penalized" true
    (T.get_flat (V.data high) 0 > 0.)

let test_displacement_loss () =
  let x0 = T.of_array1 [| 0.; 0. |] and y0 = T.of_array1 [| 0.; 0. |] in
  let x = V.const (T.of_array1 [| 3.; 0. |]) in
  let y = V.const (T.of_array1 [| 4.; 0. |]) in
  let l = Losses.displacement ~x ~y ~x0 ~y0 in
  Alcotest.(check (float 1e-9)) "eq11 mean" 12.5 (T.get_flat (V.data l) 0)

let test_congestion_loss_zero_on_empty () =
  let z = V.const (T.zeros [| 1; 4; 4 |]) in
  Alcotest.(check (float 1e-12)) "zero maps" 0.
    (T.get_flat (V.data (Losses.congestion z z)) 0)

(* ------------------------------------------------------------------ *)
(* Spreader                                                            *)
(* ------------------------------------------------------------------ *)

let test_graph_of_netlist () =
  let nl, _, _, _ = Lazy.force env in
  let g = Spreader.graph_of_netlist nl in
  Alcotest.(check int) "square" (Nl.n_cells nl) g.Csr.n_rows;
  (* symmetry *)
  let ok = ref true in
  Csr.iter g (fun i j v -> if abs_float (Csr.get g j i -. v) > 1e-9 then ok := false);
  Alcotest.(check bool) "symmetric" true !ok

let test_node_features_shape () =
  let _, _, base, _ = Lazy.force env in
  let f = Spreader.node_features base in
  Alcotest.(check (array int)) "n x 11"
    [| Nl.n_cells base.Pl.nl; 11 |] (T.shape f)

let test_spreader_starts_at_identity () =
  let _, _, base, _ = Lazy.force env in
  let adj = Csr.symmetric_normalize (Spreader.graph_of_netlist base.Pl.nl) in
  let features = Spreader.node_features base in
  let sp =
    Spreader.create (Rng.create 3) ~adj ~n_features:11 ~max_move:1.0
      ~placement:base ()
  in
  let x, _, z = Spreader.forward sp ~features in
  (* fresh GNN outputs are small: positions near x0, tiers near z0 *)
  let n = Nl.n_cells base.Pl.nl in
  let max_shift = ref 0. and tier_flips = ref 0 in
  for c = 0 to n - 1 do
    max_shift := Float.max !max_shift (abs_float (T.get_flat (V.data x) c -. base.Pl.x.(c)));
    let zt = T.get_flat (V.data z) c in
    if (zt >= 0.5) <> (base.Pl.tier.(c) = 1) then incr tier_flips
  done;
  Alcotest.(check bool) "bounded moves" true (!max_shift <= 1.0 +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "few initial tier flips (%d)" !tier_flips)
    true
    (!tier_flips < n / 6)

let test_spreader_masks_macros () =
  let nl = Gen.generate ~scale:0.015 ~seed:5 (Gen.profile "Rocket") in
  let fp = Fp.create ~gcell_nx:16 ~gcell_ny:16 nl in
  let p = Placer.global_place ~seed:1 ~params:Dco3d_place.Params.default nl fp in
  let adj = Csr.symmetric_normalize (Spreader.graph_of_netlist nl) in
  let sp =
    Spreader.create (Rng.create 3) ~adj ~n_features:11 ~max_move:5.0
      ~placement:p ()
  in
  let x, y, _ = Spreader.forward sp ~features:(Spreader.node_features p) in
  for c = 0 to Nl.n_cells nl - 1 do
    if Nl.is_macro nl c then begin
      Alcotest.(check (float 1e-9)) "macro x fixed" p.Pl.x.(c)
        (T.get_flat (V.data x) c);
      Alcotest.(check (float 1e-9)) "macro y fixed" p.Pl.y.(c)
        (T.get_flat (V.data y) c)
    end
  done

(* ------------------------------------------------------------------ *)
(* Algorithm 2 end-to-end                                              *)
(* ------------------------------------------------------------------ *)

let test_dco_optimize_smoke () =
  let _, _, base, _ = Lazy.force env in
  let predictor, _ = Lazy.force trained in
  let config =
    { Dco.default_config with Dco.iterations = 8; seed = 4 }
  in
  let p', report = Dco.optimize ~config ~predictor base in
  (* legal result *)
  (match Placer.legal_check p' with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* the optimization must make progress: the best iterate beats the
     first (Adam wobbles a little step to step) *)
  let first = report.Dco.stats.(0).Dco.total in
  let best =
    Array.fold_left (fun acc (s : Dco.iter_stats) -> Float.min acc s.Dco.total)
      infinity report.Dco.stats
  in
  Alcotest.(check bool)
    (Printf.sprintf "loss %.4f -> best %.4f" first best)
    true (best <= first);
  (* displacement stays bounded (the displacement loss is doing work) *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded displacement %.3f" report.Dco.mean_displacement)
    true
    (report.Dco.mean_displacement < 5.);
  Alcotest.(check bool) "stats recorded" true
    (Array.length report.Dco.stats >= 1 && Array.length report.Dco.stats <= 8)

(* epsilon > 0 threads the steady-state solver through every iteration:
   the rise becomes the UNet's 8th channel and the frozen-field penalty
   joins the objective.  Smoke: it must run and come back legal. *)
let test_dco_optimize_thermal_coupling () =
  let _, _, base, _ = Lazy.force env in
  let predictor, _ = Lazy.force trained in
  let config =
    { Dco.default_config with Dco.iterations = 2; seed = 4; epsilon = 0.15 }
  in
  let p', report = Dco.optimize ~config ~predictor base in
  (match Placer.legal_check p' with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "stats recorded" true
    (Array.length report.Dco.stats >= 1)

(* Algorithm 2 trains only the GCN: the predictor is frozen, so an
   optimize run must leave no gradient on any UNet weight and must not
   change the model (the same model may be the one being served). *)
let test_dco_predictor_frozen () =
  let _, _, base, _ = Lazy.force env in
  let predictor, _ = Lazy.force trained in
  let fingerprint = Predictor.fingerprint predictor in
  let config = { Dco.default_config with Dco.iterations = 3; seed = 4 } in
  let _ = Dco.optimize ~config ~predictor base in
  List.iteri
    (fun i p ->
      Alcotest.(check bool)
        (Printf.sprintf "UNet param %d has no gradient" i)
        true
        (Array.for_all (fun v -> v = 0.) (V.grad p).T.data))
    (Dco3d_nn.Siamese_unet.params predictor.Predictor.net);
  Alcotest.(check string) "fingerprint unchanged" fingerprint
    (Predictor.fingerprint predictor)

let test_dco_deterministic () =
  let _, _, base, _ = Lazy.force env in
  let predictor, _ = Lazy.force trained in
  let config = { Dco.default_config with Dco.iterations = 3; seed = 4 } in
  let a, _ = Dco.optimize ~config ~predictor base in
  let b, _ = Dco.optimize ~config ~predictor base in
  Alcotest.(check bool) "same result" true
    (a.Pl.x = b.Pl.x && a.Pl.tier = b.Pl.tier)

(* Alternating minimization on the penalty alone must actually cool a
   hotspot: compress the placement toward the die center (unlegalized —
   legalization is a density flattener that would erase the hotspot),
   run [Dco.cool], and check both the penalty and the measured peak
   rise went down on the legalized result. *)
let test_dco_cool_reduces_peak () =
  let nl, fp, base, _ = Lazy.force env in
  let hot = Pl.copy base in
  let cx = fp.Fp.width /. 2. and cy = fp.Fp.height /. 2. in
  for c = 0 to Nl.n_cells nl - 1 do
    if not (Nl.is_macro nl c) then begin
      hot.Pl.x.(c) <- cx +. (0.35 *. (hot.Pl.x.(c) -. cx));
      hot.Pl.y.(c) <- cy +. (0.35 *. (hot.Pl.y.(c) -. cy))
    end
  done;
  let cold, report = Dco.cool ~iterations:40 hot in
  (match Placer.legal_check cold with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool)
    (Printf.sprintf "penalty %.4g -> %.4g" report.Dco.loss_start
       report.Dco.loss_end)
    true
    (report.Dco.loss_end < report.Dco.loss_start);
  let module Th = Dco3d_thermal.Thermal in
  let peak p = (Th.solve_placement ~nx:8 ~ny:8 p).Th.peak_c in
  let hot_peak = peak hot and cold_peak = peak cold in
  Alcotest.(check bool)
    (Printf.sprintf "peak %.4f -> %.4f C" hot_peak cold_peak)
    true (cold_peak < hot_peak)

let test_dco_cool_deterministic () =
  let _, _, base, _ = Lazy.force env in
  let a, _ = Dco.cool ~iterations:5 base in
  let b, _ = Dco.cool ~iterations:5 base in
  Alcotest.(check bool) "same result" true
    (a.Pl.x = b.Pl.x && a.Pl.tier = b.Pl.tier)

let test_resize_value_gradcheck () =
  Alcotest.(check bool) "resize gradient" true
    (V.gradient_check
       (fun v -> V.sum (V.sqr (Dco.resize_value v 6 6)))
       (T.randn (Rng.create 21) [| 2; 4; 4 |]))

let test_normalize_features_gradcheck () =
  Alcotest.(check bool) "normalize gradient" true
    (V.gradient_check
       (fun v ->
         V.sum (V.sqr (Dco.normalize_features (Dco.feature_scales ~h:3 ~w:3) v)))
       (T.randn (Rng.create 22) [| 8; 3; 3 |]))

(* ------------------------------------------------------------------ *)
(* TCL export                                                          *)
(* ------------------------------------------------------------------ *)

let test_tcl_roundtrip () =
  let _, _, base, _ = Lazy.force env in
  let text = Tcl.to_string base in
  let locs = Tcl.parse_locations text in
  Alcotest.(check int) "all cells" (Nl.n_cells base.Pl.nl) (List.length locs);
  List.iteri
    (fun i (name, x, y, tier) ->
      if i < 10 then begin
        Alcotest.(check string) "name" (Printf.sprintf "u%d" i) name;
        Alcotest.(check (float 1e-3)) "x" base.Pl.x.(i) x;
        Alcotest.(check (float 1e-3)) "y" base.Pl.y.(i) y;
        Alcotest.(check int) "tier" base.Pl.tier.(i) tier
      end)
    locs

let test_tcl_only_moved () =
  let _, _, base, _ = Lazy.force env in
  let moved = Pl.copy base in
  moved.Pl.x.(3) <- moved.Pl.x.(3) +. 1.;
  moved.Pl.tier.(7) <- 1 - moved.Pl.tier.(7);
  let text = Tcl.to_string ~only_moved_from:base moved in
  let locs = Tcl.parse_locations text in
  Alcotest.(check int) "only two cells" 2 (List.length locs)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "core.dataset",
      [
        Alcotest.test_case "shapes" `Quick test_dataset_shapes;
        Alcotest.test_case "deterministic" `Quick test_dataset_deterministic;
        Alcotest.test_case "diverse" `Quick test_dataset_diverse;
        Alcotest.test_case "split" `Quick test_dataset_split;
        Alcotest.test_case "augment8" `Quick test_dataset_augment8;
        Alcotest.test_case "merge" `Quick test_dataset_merge;
        Alcotest.test_case "label scale" `Quick test_label_scale_positive;
      ] );
    ( "core.predictor",
      [
        Alcotest.test_case "training reduces loss" `Slow test_training_reduces_loss;
        Alcotest.test_case "prediction shapes" `Slow test_predict_shapes_and_sign;
        Alcotest.test_case "metric ranges" `Slow test_evaluate_metrics_range;
        Alcotest.test_case "save/load" `Slow test_predictor_save_load;
        Alcotest.test_case "load errors" `Quick test_predictor_load_errors;
        Alcotest.test_case "golden fingerprint" `Quick test_golden_fingerprint;
        Alcotest.test_case "train rejects bad input_hw" `Quick
          test_train_rejects_bad_input_hw;
      ] );
    ( "core.soft_maps",
      [
        Alcotest.test_case "mass matches hard maps" `Quick test_soft_maps_match_hard_at_binary_z;
        Alcotest.test_case "exact gradients (2-cell)" `Quick test_soft_maps_exact_gradients;
        Alcotest.test_case "descent direction" `Quick test_soft_maps_descent_direction;
        Alcotest.test_case "pinned forward and backward bits" `Quick
          test_soft_maps_pinned_bits;
        Alcotest.test_case "backward allocation independent of nets" `Quick
          test_soft_maps_backward_allocation;
        Alcotest.test_case "hard assignment" `Quick test_hard_assignment;
        qtest prop_soft_density_mass_conserved;
        qtest prop_soft_rudy3d_symmetric;
      ] );
    ( "core.losses",
      [
        Alcotest.test_case "cutsize matches hard cut" `Quick test_cutsize_loss_matches_hard_cut;
        Alcotest.test_case "cutsize gradient" `Quick test_cutsize_gradient_reduces_cut;
        Alcotest.test_case "overlap detects overfill" `Quick test_overlap_loss_detects_overfill;
        Alcotest.test_case "displacement (Eq. 11)" `Quick test_displacement_loss;
        Alcotest.test_case "congestion zero map" `Quick test_congestion_loss_zero_on_empty;
        qtest prop_cutsize_bounds;
      ] );
    ( "core.spreader",
      [
        Alcotest.test_case "netlist graph" `Quick test_graph_of_netlist;
        Alcotest.test_case "node features" `Quick test_node_features_shape;
        Alcotest.test_case "starts near identity" `Quick test_spreader_starts_at_identity;
        Alcotest.test_case "macros masked" `Quick test_spreader_masks_macros;
      ] );
    ( "core.dco",
      [
        Alcotest.test_case "optimize smoke" `Slow test_dco_optimize_smoke;
        Alcotest.test_case "thermal coupling smoke" `Slow
          test_dco_optimize_thermal_coupling;
        Alcotest.test_case "deterministic" `Slow test_dco_deterministic;
        Alcotest.test_case "predictor stays frozen" `Slow test_dco_predictor_frozen;
        Alcotest.test_case "cool reduces peak" `Quick test_dco_cool_reduces_peak;
        Alcotest.test_case "cool deterministic" `Quick test_dco_cool_deterministic;
        Alcotest.test_case "resize gradcheck" `Quick test_resize_value_gradcheck;
        Alcotest.test_case "normalize gradcheck" `Quick test_normalize_features_gradcheck;
      ] );
    ( "core.tcl",
      [
        Alcotest.test_case "roundtrip" `Quick test_tcl_roundtrip;
        Alcotest.test_case "only moved" `Quick test_tcl_only_moved;
      ] );
  ]
