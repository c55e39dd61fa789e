(* Tests for Table-I parameters, floorplanning, tier partitioning,
   quadratic placement, spreading, and legalization. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Nl = Dco3d_netlist.Netlist
module Gen = Dco3d_netlist.Generator
module Params = Dco3d_place.Params
module Floorplan = Dco3d_place.Floorplan
module Placement = Dco3d_place.Placement
module Partition = Dco3d_place.Partition
module Placer = Dco3d_place.Placer

let small name = Gen.generate ~scale:0.02 ~seed:5 (Gen.profile name)

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_params_table1_names () =
  (* all 16 ICC2 knob names of Table I appear in the report *)
  let names = List.map fst (Params.to_assoc Params.default) in
  Alcotest.(check int) "16 knobs" 16 (List.length names);
  List.iter
    (fun expected ->
      Alcotest.(check bool) expected true (List.mem expected names))
    [
      "coarse.pin_density_aware"; "coarse.target_routing_density";
      "coarse.adv_node_cong_max_util"; "coarse.congestion_driven_max_util";
      "coarse.cong_restruct_effort"; "coarse.cong_restruct_iterations";
      "coarse.enhanced_low_power_effort"; "coarse.low_power_placement";
      "coarse.max_density"; "legalize.displacement_threshold";
      "initial_place.two_pass"; "initial_drc.global_route_based";
      "flow.enable_ccd"; "initial_place.effort"; "final_place.effort";
      "flow.enable_irap";
    ]

let test_params_vector_roundtrip () =
  let rng = Rng.create 9 in
  for _ = 1 to 50 do
    let p = Params.sample rng in
    let p' = Params.of_vector (Params.to_vector p) in
    Alcotest.(check bool) "roundtrip" true (p = p')
  done

let test_params_of_vector_clamps () =
  let v = Array.make Params.dimensions 7.5 in
  let p = Params.of_vector v in
  Alcotest.(check bool) "clamped density" true (p.Params.max_density <= 1.);
  Alcotest.(check int) "clamped effort" 4 p.Params.cong_restruct_effort;
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Params.of_vector: expected 16 values") (fun () ->
      ignore (Params.of_vector [| 0.5 |]))

let prop_sample_in_ranges =
  QCheck.Test.make ~name:"sampled params stay in Table-I ranges" ~count:100
    (QCheck.int_bound 100_000) (fun seed ->
      let p = Params.sample (Rng.create seed) in
      p.Params.target_routing_density >= 0.
      && p.Params.target_routing_density <= 1.
      && p.Params.cong_restruct_effort >= 0
      && p.Params.cong_restruct_effort <= 4
      && p.Params.cong_restruct_iterations <= 10
      && p.Params.displacement_threshold <= 10
      && p.Params.initial_place_effort <= 2
      && p.Params.final_place_effort <= 2)

(* ------------------------------------------------------------------ *)
(* Floorplan                                                           *)
(* ------------------------------------------------------------------ *)

let test_floorplan_utilization () =
  let nl = small "DMA" in
  let fp = Floorplan.create ~utilization:0.5 nl in
  let die_area = fp.Floorplan.width *. fp.Floorplan.height in
  let util = Nl.total_cell_area nl /. (2. *. die_area) in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.3f near 0.5" util)
    true
    (abs_float (util -. 0.5) < 0.05)

let test_floorplan_rows_integral () =
  let nl = small "AES" in
  let fp = Floorplan.create nl in
  Alcotest.(check (float 1e-9)) "height = rows * row_height"
    fp.Floorplan.height
    (float_of_int fp.Floorplan.n_rows *. Dco3d_netlist.Cell_lib.row_height)

let test_gcell_mapping () =
  let nl = small "DMA" in
  let fp = Floorplan.create ~gcell_nx:10 ~gcell_ny:10 nl in
  Alcotest.(check (pair int int)) "origin" (0, 0) (Floorplan.gcell_of fp 0. 0.);
  Alcotest.(check (pair int int)) "far corner clamps" (9, 9)
    (Floorplan.gcell_of fp (2. *. fp.Floorplan.width) (2. *. fp.Floorplan.height));
  let cx, cy = Floorplan.gcell_center fp 0 0 in
  let gx, gy = Floorplan.gcell_of fp cx cy in
  Alcotest.(check (pair int int)) "center maps back" (0, 0) (gx, gy)

let test_io_positions_on_boundary () =
  let nl = small "LDPC" in
  let fp = Floorplan.create nl in
  let n = Nl.n_ios nl in
  for i = 0 to n - 1 do
    let x, y = Floorplan.io_position fp ~n_ios:n i in
    let on_edge =
      abs_float x < 1e-9
      || abs_float (x -. fp.Floorplan.width) < 1e-9
      || abs_float y < 1e-9
      || abs_float (y -. fp.Floorplan.height) < 1e-9
    in
    if not on_edge then
      Alcotest.failf "pad %d at (%g, %g) is not on the boundary" i x y
  done

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let test_partition_balanced () =
  let nl = small "AES" in
  let tier = Partition.bipartition ~seed:3 nl in
  Alcotest.(check bool) "balance within tolerance" true
    (Partition.balance_of nl tier <= 0.031)

let test_partition_beats_random () =
  let nl = small "AES" in
  let tier = Partition.bipartition ~seed:3 nl in
  let rng = Rng.create 77 in
  let random = Array.init (Nl.n_cells nl) (fun _ -> Rng.int rng 2) in
  let cut = Partition.cut_of nl tier in
  let cut_rand = Partition.cut_of nl random in
  Alcotest.(check bool)
    (Printf.sprintf "fm cut %d < random cut %d" cut cut_rand)
    true (cut < cut_rand)

let prop_partition_valid =
  QCheck.Test.make ~name:"partition is balanced for any seed" ~count:10
    (QCheck.int_bound 1000) (fun seed ->
      let nl = small "DMA" in
      let tier = Partition.bipartition ~seed nl in
      Array.for_all (fun t -> t = 0 || t = 1) tier
      && Partition.balance_of nl tier <= 0.05)

(* ------------------------------------------------------------------ *)
(* Placement metrics                                                   *)
(* ------------------------------------------------------------------ *)

let test_hpwl_decreases_with_qp () =
  (* quadratic placement must reduce wirelength versus random spread *)
  let nl = small "DMA" in
  let fp = Floorplan.create nl in
  let p = Placement.create nl fp in
  let rng = Rng.create 4 in
  for c = 0 to Nl.n_cells nl - 1 do
    p.Placement.x.(c) <- Rng.float rng fp.Floorplan.width;
    p.Placement.y.(c) <- Rng.float rng fp.Floorplan.height
  done;
  let before = Placement.hpwl p in
  Placer.quadratic_place p;
  let after = Placement.hpwl p in
  Alcotest.(check bool)
    (Printf.sprintf "hpwl %.0f -> %.0f" before after)
    true
    (after < 0.7 *. before)

let test_cut_size_matches_3d_nets () =
  let nl = small "DMA" in
  let fp = Floorplan.create nl in
  let p = Placement.create nl fp in
  let tier = Partition.bipartition ~seed:1 nl in
  Array.blit tier 0 p.Placement.tier 0 (Array.length tier);
  let by_pred =
    List.length (List.filter (Placement.net_is_3d p) (Nl.signal_nets nl))
  in
  Alcotest.(check int) "cut = #3D nets" by_pred (Placement.cut_size p);
  Alcotest.(check int) "partition agrees" (Partition.cut_of nl tier)
    (Placement.cut_size p)

let test_density_map_conserves_area () =
  let nl = small "VGA" in
  let fp = Floorplan.create nl in
  let p = Placer.global_place ~seed:2 ~params:Params.default nl fp in
  let nx = 16 and ny = 16 in
  let d0 = Placement.density_map p ~tier:0 ~nx ~ny in
  let d1 = Placement.density_map p ~tier:1 ~nx ~ny in
  let bin_area =
    fp.Floorplan.width /. float_of_int nx *. (fp.Floorplan.height /. float_of_int ny)
  in
  let mapped = (T.sum d0 +. T.sum d1) *. bin_area in
  let total = Nl.total_cell_area nl in
  Alcotest.(check bool)
    (Printf.sprintf "area %.1f vs mapped %.1f" total mapped)
    true
    (abs_float (mapped -. total) /. total < 0.02)

let test_displacement_metrics () =
  let nl = small "DMA" in
  let fp = Floorplan.create nl in
  let p = Placement.create nl fp in
  let q = Placement.copy p in
  Alcotest.(check (float 1e-12)) "zero displacement" 0.
    (Placement.displacement_from p q);
  q.Placement.x.(0) <- q.Placement.x.(0) +. 3.;
  Alcotest.(check (float 1e-9)) "max displacement" 3.
    (Placement.max_displacement_from p q);
  Alcotest.(check (float 1e-9)) "mean displacement"
    (3. /. float_of_int (Nl.n_cells nl))
    (Placement.displacement_from p q)

(* ------------------------------------------------------------------ *)
(* Spreading and legalization                                          *)
(* ------------------------------------------------------------------ *)

let test_spread_reduces_peak () =
  let nl = small "AES" in
  let fp = Floorplan.create nl in
  let p = Placement.create nl fp in
  (* everything at the center: worst case *)
  let peak_before =
    T.max_elt
      (Placement.density_map p ~tier:0 ~nx:fp.Floorplan.gcell_nx
         ~ny:fp.Floorplan.gcell_ny)
  in
  Placer.spread ~iterations:30 ~target_density:0.7 ~inflation:None p;
  let peak_after =
    T.max_elt
      (Placement.density_map p ~tier:0 ~nx:fp.Floorplan.gcell_nx
         ~ny:fp.Floorplan.gcell_ny)
  in
  Alcotest.(check bool)
    (Printf.sprintf "peak %.2f -> %.2f" peak_before peak_after)
    true
    (peak_after < 0.25 *. peak_before)

let test_legalize_produces_legal () =
  List.iter
    (fun name ->
      let nl = small name in
      let fp = Floorplan.create nl in
      let p = Placer.global_place ~seed:1 ~params:Params.default nl fp in
      match Placer.legal_check p with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    [ "DMA"; "VGA"; "Rocket" ]

let test_legalize_bounded_displacement () =
  let nl = small "DMA" in
  let fp = Floorplan.create nl in
  let p = Placer.global_place ~seed:1 ~params:Params.default nl fp in
  let before = Placement.copy p in
  Placer.legalize p;
  (* legalizing an already-legal placement must barely move cells *)
  Alcotest.(check bool) "stable legalization" true
    (Placement.displacement_from p before < 0.5)

let test_global_place_deterministic () =
  let nl = small "DMA" in
  let fp = Floorplan.create nl in
  let a = Placer.global_place ~seed:9 ~params:Params.default nl fp in
  let b = Placer.global_place ~seed:9 ~params:Params.default nl fp in
  Alcotest.(check bool) "same placement" true
    (a.Placement.x = b.Placement.x && a.Placement.y = b.Placement.y
    && a.Placement.tier = b.Placement.tier)

let test_global_place_seed_diversity () =
  let nl = small "DMA" in
  let fp = Floorplan.create nl in
  let a = Placer.global_place ~seed:1 ~params:Params.default nl fp in
  let b = Placer.global_place ~seed:2 ~params:Params.default nl fp in
  Alcotest.(check bool) "seeds differ" true
    (Placement.displacement_from a b > 0.001)

let test_congestion_params_spread_more () =
  (* the Pin-3D+Cong. knob set must place less densely (more spreading)
     than the default — the mechanism behind Table III's placement-stage
     overflow reductions *)
  let nl = small "AES" in
  let fp = Floorplan.create nl in
  let base = Placer.global_place ~seed:1 ~params:Params.default nl fp in
  let cong = Placer.global_place ~seed:1 ~params:Params.congestion_focused nl fp in
  let nx = fp.Floorplan.gcell_nx and ny = fp.Floorplan.gcell_ny in
  let peak p =
    Float.max
      (T.max_elt (Placement.density_map p ~tier:0 ~nx ~ny))
      (T.max_elt (Placement.density_map p ~tier:1 ~nx ~ny))
  in
  (* compare total squared density (peak is noisy at small scale) *)
  let energy p =
    let d0 = Placement.density_map p ~tier:0 ~nx ~ny in
    let d1 = Placement.density_map p ~tier:1 ~nx ~ny in
    T.dot d0 d0 +. T.dot d1 d1
  in
  Alcotest.(check bool)
    (Printf.sprintf "density energy: cong %.2f <= base %.2f (peaks %.2f, %.2f)"
       (energy cong) (energy base) (peak cong) (peak base))
    true
    (energy cong <= energy base *. 1.02);
  (* and pays wirelength for it *)
  Alcotest.(check bool)
    (Printf.sprintf "hpwl: cong %.0f >= base %.0f"
       (Placement.hpwl cong) (Placement.hpwl base))
    true
    (Placement.hpwl cong >= 0.98 *. Placement.hpwl base)

let qtest = QCheck_alcotest.to_alcotest

(* Placements pinned to values recorded before the spreader, the QP
   set-up and CG were rewritten for speed: a digest of every cell's x,
   y (IEEE bits) and tier, under the default and the congestion-focused
   knobs (the second adds pin-saturation inflation to the final
   spreading pass). *)
let test_pinned_placement_digests () =
  let nl = Gen.generate ~scale:0.05 ~seed:5 (Gen.profile "DMA") in
  let fp = Floorplan.create ~gcell_nx:48 ~gcell_ny:48 nl in
  let digest params =
    let p = Placer.global_place ~seed:1 ~params nl fp in
    let b = Buffer.create 16384 in
    Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) p.Placement.x;
    Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) p.Placement.y;
    Array.iter (fun t -> Buffer.add_int8 b t) p.Placement.tier;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  Alcotest.(check string) "default" "b9c14fa97f2a825c85f6109de8acee1b"
    (digest Params.default);
  Alcotest.(check string) "congestion-focused" "0ababdb55bdc6bc7e670f698722904ae"
    (digest Params.congestion_focused)

let suites =
  [
    ( "place.params",
      [
        Alcotest.test_case "Table-I knob names" `Quick test_params_table1_names;
        Alcotest.test_case "vector roundtrip" `Quick test_params_vector_roundtrip;
        Alcotest.test_case "of_vector clamps" `Quick test_params_of_vector_clamps;
        qtest prop_sample_in_ranges;
      ] );
    ( "place.floorplan",
      [
        Alcotest.test_case "utilization" `Quick test_floorplan_utilization;
        Alcotest.test_case "integral rows" `Quick test_floorplan_rows_integral;
        Alcotest.test_case "gcell mapping" `Quick test_gcell_mapping;
        Alcotest.test_case "pads on boundary" `Quick test_io_positions_on_boundary;
      ] );
    ( "place.partition",
      [
        Alcotest.test_case "balanced" `Quick test_partition_balanced;
        Alcotest.test_case "beats random cut" `Quick test_partition_beats_random;
        qtest prop_partition_valid;
      ] );
    ( "place.metrics",
      [
        Alcotest.test_case "qp reduces hpwl" `Quick test_hpwl_decreases_with_qp;
        Alcotest.test_case "cut = 3D nets" `Quick test_cut_size_matches_3d_nets;
        Alcotest.test_case "density conserves area" `Quick test_density_map_conserves_area;
        Alcotest.test_case "displacement metrics" `Quick test_displacement_metrics;
      ] );
    ( "place.pipeline",
      [
        Alcotest.test_case "spread reduces peak" `Quick test_spread_reduces_peak;
        Alcotest.test_case "legal output" `Quick test_legalize_produces_legal;
        Alcotest.test_case "stable re-legalization" `Quick test_legalize_bounded_displacement;
        Alcotest.test_case "deterministic" `Quick test_global_place_deterministic;
        Alcotest.test_case "seed diversity" `Quick test_global_place_seed_diversity;
        Alcotest.test_case "congestion knobs spread more" `Quick test_congestion_params_spread_more;
        Alcotest.test_case "pinned placement digests" `Quick test_pinned_placement_digests;
      ] );
  ]
