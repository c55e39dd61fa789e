(* Tests for RUDY / PinRUDY, the 7-channel feature maps, and the
   prediction metrics (NRMSE / SSIM). *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Nl = Dco3d_netlist.Netlist
module Gen = Dco3d_netlist.Generator
module Fp = Dco3d_place.Floorplan
module Pl = Dco3d_place.Placement
module Placer = Dco3d_place.Placer
module Rudy = Dco3d_congestion.Rudy
module Fm = Dco3d_congestion.Feature_maps
module M = Dco3d_congestion.Metrics

let placed name =
  let nl = Gen.generate ~scale:0.02 ~seed:5 (Gen.profile name) in
  let fp = Fp.create nl in
  Placer.global_place ~seed:1 ~params:Dco3d_place.Params.default nl fp

(* ------------------------------------------------------------------ *)
(* RUDY                                                                *)
(* ------------------------------------------------------------------ *)

let test_net_weight () =
  Alcotest.(check (float 1e-9)) "square net" 2. (Rudy.net_weight 1. 1.);
  Alcotest.(check (float 1e-9)) "wide net" (1. +. 0.5) (Rudy.net_weight 1. 2.);
  (* degenerate spans clamp to the minimum feature size *)
  Alcotest.(check bool) "point net finite" true
    (Float.is_finite (Rudy.net_weight 0. 0.))

let test_accumulate_net_conserves_weight () =
  (* integrating RUDY over all tiles recovers weight * bbox_area /
     tile_area (Eq. 2 is a partition of the bbox) *)
  let map = T.zeros [| 8; 8 |] in
  let die = 8. in
  Rudy.accumulate_net map ~die_w:die ~die_h:die ~bbox:(1.2, 2.3, 5.7, 6.1)
    ~weight:3.;
  let bbox_area = (5.7 -. 1.2) *. (6.1 -. 2.3) in
  let tile_area = 1. in
  Alcotest.(check (float 1e-9)) "mass conserved"
    (3. *. bbox_area /. tile_area)
    (T.sum map)

let test_accumulate_clips_outside () =
  let map = T.zeros [| 4; 4 |] in
  Rudy.accumulate_net map ~die_w:4. ~die_h:4. ~bbox:(-2., -2., 2., 2.) ~weight:1.;
  (* only the on-die quarter of the box lands *)
  Alcotest.(check (float 1e-9)) "clipped mass" 4. (T.sum map);
  Alcotest.(check (float 1e-9)) "in the corner" 1. (T.get2 map 0 0)

(* A map with no tiles has nowhere to put a net: every clamped tile
   index would be 0, one past the end of its empty data. *)
let test_accumulate_rejects_empty_map () =
  List.iter
    (fun shape ->
      let name =
        Printf.sprintf "[%s]"
          (String.concat "; " (Array.to_list (Array.map string_of_int shape)))
      in
      Alcotest.check_raises name
        (Invalid_argument "Rudy.accumulate_net: empty map") (fun () ->
          Rudy.accumulate_net (T.zeros shape) ~die_w:4. ~die_h:4.
            ~bbox:(1., 1., 2., 2.) ~weight:1.))
    [ [| 0; 4 |]; [| 4; 0 |]; [| 0; 0 |] ]

let test_rudy_2d_3d_partition () =
  (* Every signal net is either 2D or 3D: on each die,
     2D + 2*3D(scaled by .5 -> x2) mass must equal the per-die share of
     the All estimator's coverage... simpler invariant: a 2D map only
     sees same-tier nets, the 3D maps of both dies are identical. *)
  let p = placed "DMA" in
  let nx = 12 and ny = 12 in
  let r3_bot = Rudy.rudy_map p ~tier:0 ~kind:Rudy.Three_d ~nx ~ny in
  let r3_top = Rudy.rudy_map p ~tier:1 ~kind:Rudy.Three_d ~nx ~ny in
  Alcotest.(check bool) "3D RUDY identical on both dies" true
    (T.approx_equal ~eps:1e-9 r3_bot r3_top);
  let r2_bot = Rudy.rudy_map p ~tier:0 ~kind:Rudy.Two_d ~nx ~ny in
  Alcotest.(check bool) "some 2D demand" true (T.sum r2_bot > 0.);
  Alcotest.(check bool) "some 3D demand" true (T.sum r3_bot > 0.)

let test_rudy_scaling_halves_3d () =
  (* the 3D contribution carries the paper's 0.5 scale *)
  let p = placed "DMA" in
  let nets_3d =
    List.filter (Pl.net_is_3d p) (Nl.signal_nets p.Pl.nl)
  in
  Alcotest.(check bool) "design has 3D nets" true (nets_3d <> []);
  let nx = 10 and ny = 10 in
  let map = Rudy.rudy_map p ~tier:0 ~kind:Rudy.Three_d ~nx ~ny in
  (* recompute manually at scale 1 and compare total mass *)
  let manual = T.zeros [| ny; nx |] in
  List.iter
    (fun net ->
      let x0, y0, x1, y1 = Pl.net_bbox p net in
      Rudy.accumulate_net manual
        ~die_w:p.Pl.fp.Fp.width ~die_h:p.Pl.fp.Fp.height
        ~bbox:(x0, y0, x1, y1)
        ~weight:(Rudy.net_weight (x1 -. x0) (y1 -. y0)))
    nets_3d;
  Alcotest.(check bool) "exactly half" true
    (abs_float (T.sum map -. (0.5 *. T.sum manual)) < 1e-6)

let test_pin_rudy_counts_only_tier_pins () =
  let p = placed "DMA" in
  let nx = 10 and ny = 10 in
  let m0 = Rudy.pin_rudy_map p ~tier:0 ~kind:Rudy.Two_d ~nx ~ny in
  let m1 = Rudy.pin_rudy_map p ~tier:1 ~kind:Rudy.Two_d ~nx ~ny in
  Alcotest.(check bool) "both tiers have pin demand" true
    (T.sum m0 > 0. && T.sum m1 > 0.)

(* ------------------------------------------------------------------ *)
(* Feature maps                                                        *)
(* ------------------------------------------------------------------ *)

let test_feature_stack_shape () =
  let p = placed "VGA" in
  let f0, f1 = Fm.both_dies p ~nx:16 ~ny:12 in
  Alcotest.(check (array int)) "bottom shape" [| 8; 12; 16 |] (T.shape f0);
  Alcotest.(check (array int)) "top shape" [| 8; 12; 16 |] (T.shape f1);
  Alcotest.(check int) "channel names" 8 (Array.length Fm.channel_names)

let test_feature_channels_nonneg () =
  let p = placed "LDPC" in
  let f0 = Fm.per_die p ~tier:0 ~nx:16 ~ny:16 in
  Alcotest.(check bool) "non-negative features" true (T.min_elt f0 >= 0.)

let test_macro_blockage_channel () =
  let p = placed "VGA" in
  (* VGA has two macros; blockage appears on exactly the macro tiers *)
  let blk t = T.sum (T.channel (Fm.per_die p ~tier:t ~nx:16 ~ny:16) 6) in
  Alcotest.(check bool) "macro blockage present" true (blk 0 +. blk 1 > 0.);
  let p_dma = placed "DMA" in
  let blk_dma t = T.sum (T.channel (Fm.per_die p_dma ~tier:t ~nx:16 ~ny:16) 6) in
  Alcotest.(check (float 1e-12)) "no macros, no blockage" 0.
    (blk_dma 0 +. blk_dma 1)

let test_normalize_scales_channels () =
  let p = placed "DMA" in
  let f = Fm.per_die p ~tier:0 ~nx:16 ~ny:16 in
  let n = Fm.normalize f in
  Alcotest.(check bool) "normalized below raw max" true
    (T.max_elt n <= T.max_elt f +. 1e-9);
  Alcotest.(check bool) "O(1) scale" true (T.max_elt n < 50.)

let test_resize_stack () =
  let p = placed "DMA" in
  let f = Fm.per_die p ~tier:0 ~nx:12 ~ny:12 in
  let r = Fm.resize_stack f 8 8 in
  Alcotest.(check (array int)) "resized" [| 8; 8; 8 |] (T.shape r);
  (* nearest-neighbour: no new values *)
  Alcotest.(check bool) "range preserved" true
    (T.max_elt r <= T.max_elt f +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_nrmse_identical_zero () =
  let m = T.rand_uniform (Rng.create 1) [| 10; 10 |] in
  Alcotest.(check (float 1e-12)) "identical" 0. (M.nrmse m m)

let test_nrmse_known () =
  let truth = T.make [| 1; 2 |] [| 0.; 1. |] in
  let pred = T.make [| 1; 2 |] [| 0.5; 1. |] in
  (* rmse = sqrt(0.25/2), range = 1 *)
  Alcotest.(check (float 1e-9)) "known" (sqrt 0.125) (M.nrmse pred truth)

let test_ssim_identical_one () =
  let m = T.rand_uniform (Rng.create 2) [| 16; 16 |] in
  Alcotest.(check (float 1e-9)) "identical" 1. (M.ssim m m)

let test_ssim_bounded_and_ordered () =
  let rng = Rng.create 3 in
  let truth = T.rand_uniform rng [| 16; 16 |] in
  let close = T.map2 (fun a b -> (0.9 *. a) +. (0.1 *. b)) truth (T.rand_uniform rng [| 16; 16 |]) in
  let far = T.rand_uniform (Rng.create 99) [| 16; 16 |] in
  let s_close = M.ssim close truth and s_far = M.ssim far truth in
  Alcotest.(check bool) "bounded" true (s_close <= 1. && s_close >= -1.);
  Alcotest.(check bool)
    (Printf.sprintf "close %.3f > far %.3f" s_close s_far)
    true (s_close > s_far)

(* Brute-force reference: identical statistics, positions generated
   naively (every multiple of the stride, plus the clamped edge
   position).  Guards the window_positions fix: before it, windows
   stopped at the last full multiple of the stride and up to stride-1
   border rows/columns were invisible to the metric. *)
let ssim_reference ?(window = 7) pred truth =
  let h = T.dim pred 0 and w = T.dim pred 1 in
  let win = max 2 (min window (min h w)) in
  let range = Float.max 1e-12 (T.max_elt truth -. T.min_elt truth) in
  let c1 = (0.01 *. range) ** 2. and c2 = (0.03 *. range) ** 2. in
  let stride = max 1 (win / 2) in
  let positions extent =
    let rec go p acc = if p <= extent - win then go (p + stride) (p :: acc) else acc in
    let ps = go 0 [] in
    let ps = if List.mem (extent - win) ps then ps else (extent - win) :: ps in
    List.rev ps
  in
  let patch y x =
    let n = float_of_int (win * win) in
    let stat m =
      let s = ref 0. in
      for i = y to y + win - 1 do
        for j = x to x + win - 1 do
          s := !s +. T.get2 m i j
        done
      done;
      !s /. n
    in
    let mu_a = stat pred and mu_b = stat truth in
    let va = ref 0. and vb = ref 0. and cov = ref 0. in
    for i = y to y + win - 1 do
      for j = x to x + win - 1 do
        let da = T.get2 pred i j -. mu_a and db = T.get2 truth i j -. mu_b in
        va := !va +. (da *. da);
        vb := !vb +. (db *. db);
        cov := !cov +. (da *. db)
      done
    done;
    ((2. *. mu_a *. mu_b) +. c1)
    *. ((2. *. !cov /. n) +. c2)
    /. (((mu_a *. mu_a) +. (mu_b *. mu_b) +. c1)
       *. ((!va /. n) +. (!vb /. n) +. c2))
  in
  let acc = ref 0. and count = ref 0 in
  List.iter
    (fun y ->
      List.iter
        (fun x ->
          acc := !acc +. patch y x;
          incr count)
        (positions w))
    (positions h);
  !acc /. float_of_int (max 1 !count)

let test_ssim_matches_bruteforce () =
  List.iter
    (fun (hh, ww, window, seed) ->
      let rng = Rng.create seed in
      let truth = T.rand_uniform rng [| hh; ww |] in
      let pred = T.rand_uniform rng [| hh; ww |] in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "%dx%d win %d" hh ww window)
        (ssim_reference ~window pred truth)
        (M.ssim ~window pred truth))
    [ (9, 9, 4, 1); (8, 8, 4, 2); (16, 16, 7, 3); (7, 11, 5, 4); (5, 5, 7, 5) ]

let test_ssim_sees_edge_hotspot () =
  (* 9x9 with win=4, stride=2: window starts were [0;2;4] pre-fix, so
     row/column 8 was never sampled — a hotspot there left the score at
     exactly 1.  The clamped position 5 must now pick it up. *)
  let base = T.init [| 9; 9 |] (fun _ -> 0.1) in
  let truth =
    T.init [| 9; 9 |] (fun idx ->
        if idx.(0) = 8 && idx.(1) = 8 then 5. else 0.1)
  in
  let s = M.ssim ~window:4 base truth in
  Alcotest.(check bool)
    (Printf.sprintf "edge hotspot lowers ssim (got %.6f)" s)
    true (s < 0.999);
  Alcotest.(check (float 1e-12)) "matches brute force"
    (ssim_reference ~window:4 base truth) s

let prop_ssim_range =
  QCheck.Test.make ~name:"ssim stays in [-1, 1]" ~count:30
    (QCheck.int_bound 100_000) (fun seed ->
      let rng = Rng.create seed in
      let a = T.rand_uniform rng [| 12; 12 |] in
      let b = T.rand_uniform rng [| 12; 12 |] in
      let s = M.ssim a b in
      s >= -1.000001 && s <= 1.000001)

let test_pearson () =
  let a = T.of_array1 [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "self" 1. (M.pearson a a);
  Alcotest.(check (float 1e-9)) "anti" (-1.) (M.pearson a (T.neg a));
  Alcotest.(check (float 1e-12)) "constant" 0. (M.pearson a (T.ones [| 4 |]))

let test_normalize01 () =
  let m = T.of_array1 [| 2.; 4.; 6. |] in
  let n = M.normalize01 m in
  Alcotest.(check (float 1e-12)) "min" 0. (T.min_elt n);
  Alcotest.(check (float 1e-12)) "max" 1. (T.max_elt n);
  let flat = M.normalize01 (T.ones [| 3 |]) in
  Alcotest.(check (float 1e-12)) "constant map -> zeros" 0. (T.max_elt flat)

let test_histogram_and_fractions () =
  let values = [ 0.05; 0.15; 0.15; 0.25; 0.95; 1.5 ] in
  let h = M.histogram ~bins:10 ~lo:0. ~hi:1. values in
  Alcotest.(check int) "bin 0" 1 h.(0);
  Alcotest.(check int) "bin 1" 2 h.(1);
  Alcotest.(check int) "clamped top" 2 h.(9);
  Alcotest.(check (float 1e-9)) "below 0.2" 0.5 (M.fraction_below 0.2 values);
  Alcotest.(check (float 1e-9)) "above 0.9" (2. /. 6.) (M.fraction_above 0.9 values)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "congestion.rudy",
      [
        Alcotest.test_case "net weight" `Quick test_net_weight;
        Alcotest.test_case "mass conservation" `Quick test_accumulate_net_conserves_weight;
        Alcotest.test_case "clips outside die" `Quick test_accumulate_clips_outside;
        Alcotest.test_case "rejects an empty map" `Quick
          test_accumulate_rejects_empty_map;
        Alcotest.test_case "2D/3D partition" `Quick test_rudy_2d_3d_partition;
        Alcotest.test_case "3D nets scaled by 0.5" `Quick test_rudy_scaling_halves_3d;
        Alcotest.test_case "pin RUDY per tier" `Quick test_pin_rudy_counts_only_tier_pins;
      ] );
    ( "congestion.features",
      [
        Alcotest.test_case "stack shape" `Quick test_feature_stack_shape;
        Alcotest.test_case "non-negative" `Quick test_feature_channels_nonneg;
        Alcotest.test_case "macro blockage" `Quick test_macro_blockage_channel;
        Alcotest.test_case "normalization" `Quick test_normalize_scales_channels;
        Alcotest.test_case "resize stack" `Quick test_resize_stack;
      ] );
    ( "congestion.metrics",
      [
        Alcotest.test_case "nrmse identical" `Quick test_nrmse_identical_zero;
        Alcotest.test_case "nrmse known" `Quick test_nrmse_known;
        Alcotest.test_case "ssim identical" `Quick test_ssim_identical_one;
        Alcotest.test_case "ssim ordering" `Quick test_ssim_bounded_and_ordered;
        Alcotest.test_case "ssim matches brute force" `Quick
          test_ssim_matches_bruteforce;
        Alcotest.test_case "ssim sees edge hotspot" `Quick
          test_ssim_sees_edge_hotspot;
        Alcotest.test_case "pearson" `Quick test_pearson;
        Alcotest.test_case "normalize01" `Quick test_normalize01;
        Alcotest.test_case "histogram/fractions" `Quick test_histogram_and_fractions;
        qtest prop_ssim_range;
      ] );
  ]
