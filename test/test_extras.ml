(* Tests for the auxiliary user-facing utilities: ASCII map rendering
   and critical-path tracing. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Nl = Dco3d_netlist.Netlist
module Gen = Dco3d_netlist.Generator
module Ascii = Dco3d_congestion.Ascii_map
module Sta = Dco3d_sta.Sta
module Fp = Dco3d_place.Floorplan
module Pl = Dco3d_place.Placement

(* ------------------------------------------------------------------ *)
(* Ascii_map                                                           *)
(* ------------------------------------------------------------------ *)

let test_render_dimensions () =
  let m = T.zeros [| 4; 6 |] in
  let out = Ascii.render m in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  (* 4 rows + 2 border lines *)
  Alcotest.(check int) "line count" 6 (List.length lines);
  List.iter
    (fun l -> Alcotest.(check int) "width" 8 (String.length l))
    lines

let test_render_intensity_order () =
  let m = T.of_array2 [| [| 0.; 1. |] |] in
  let out = Ascii.render ~palette:" X" m in
  (* low maps to ' ', high to 'X' *)
  Alcotest.(check bool) "contains X" true (String.contains out 'X');
  let row = List.nth (String.split_on_char '\n' out) 1 in
  Alcotest.(check char) "low cell blank" ' ' row.[1];
  Alcotest.(check char) "high cell marked" 'X' row.[2]

let test_render_constant_map () =
  let m = T.full [| 3; 3 |] 7. in
  (* must not divide by zero *)
  let out = Ascii.render m in
  Alcotest.(check bool) "rendered" true (String.length out > 0)

let test_render_downsamples_wide_maps () =
  let m = T.zeros [| 10; 200 |] in
  let out = Ascii.render ~width:40 m in
  let row = List.nth (String.split_on_char '\n' out) 1 in
  Alcotest.(check bool) "bounded width" true (String.length row <= 42)

let test_render_pair_shares_scale () =
  let a = T.full [| 2; 2 |] 0. in
  let b = T.full [| 2; 2 |] 10. in
  let out = Ascii.render_pair ~labels:("L", "R") a b in
  Alcotest.(check bool) "labels present" true
    (String.length out > 0
    && String.contains out 'L'
    && String.contains out 'R');
  (* the all-zero map must render as the lowest palette char, since the
     scale is shared with the all-10 map *)
  Alcotest.(check bool) "left is blank under shared scale" true
    (String.contains out ' ')

let test_render_requires_rank2 () =
  Alcotest.check_raises "rank 3"
    (Invalid_argument "Ascii_map.render: rank-2 map expected") (fun () ->
      ignore (Ascii.render (T.zeros [| 1; 2; 2 |])))

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)
(* ------------------------------------------------------------------ *)

let test_critical_path_structure () =
  let nl = Gen.generate ~scale:0.02 ~seed:5 (Gen.profile "Rocket") in
  let fp = Fp.create nl in
  let p =
    Dco3d_place.Placer.global_place ~seed:1 ~params:Dco3d_place.Params.default
      nl fp
  in
  let lengths = Array.make (Nl.n_nets nl) 1. in
  let net_is_3d nid = Pl.net_is_3d p nl.Nl.nets.(nid) in
  let cfg = Sta.default_config ~clock_period_ps:500. in
  let t = Sta.analyze cfg nl ~net_length:lengths ~net_is_3d in
  let path = Sta.critical_path nl t in
  Alcotest.(check bool) "non-empty" true (path <> []);
  (* arrivals must be non-decreasing along the path *)
  let arr = List.map (fun c -> t.Sta.cell_arrival.(c)) path in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "arrivals non-decreasing" true (monotone arr);
  (* the endpoint is the globally latest cell *)
  let last = List.nth path (List.length path - 1) in
  Array.iteri
    (fun c a ->
      if a > t.Sta.cell_arrival.(last) +. 1e-9 then
        Alcotest.failf "cell %d arrives later than path endpoint" c)
    t.Sta.cell_arrival

let test_critical_path_singleton_design () =
  (* one cell: the path is that cell *)
  let m = Dco3d_netlist.Cell_lib.find "INV_X1" in
  let nl =
    {
      Nl.design = "one";
      masters = [| m |];
      nets =
        [|
          { Nl.net_id = 0; net_name = "n"; driver = Nl.Cell 0;
            sinks = [| Nl.Io 0 |]; is_clock = false };
        |];
      ios = [| { Nl.io_id = 0; io_name = "o"; dir = Nl.Out } |];
      cell_fanin = [| [||] |];
      cell_fanout = [| 0 |];
    }
  in
  let cfg = Sta.default_config ~clock_period_ps:1000. in
  let t =
    Sta.analyze cfg nl ~net_length:[| 1. |] ~net_is_3d:(fun _ -> false)
  in
  Alcotest.(check (list int)) "single-cell path" [ 0 ]
    (Sta.critical_path nl t)

(* ------------------------------------------------------------------ *)
(* Timing reports                                                      *)
(* ------------------------------------------------------------------ *)

let report_env =
  lazy
    (let nl = Gen.generate ~scale:0.02 ~seed:5 (Gen.profile "DMA") in
     let fp = Fp.create nl in
     let p =
       Dco3d_place.Placer.global_place ~seed:1
         ~params:Dco3d_place.Params.default nl fp
     in
     let lengths = Array.make (Nl.n_nets nl) 1. in
     let net_is_3d nid = Pl.net_is_3d p nl.Nl.nets.(nid) in
     let cfg = Sta.default_config ~clock_period_ps:200. in
     (nl, Sta.analyze cfg nl ~net_length:lengths ~net_is_3d))

let test_report_summary () =
  let _, t = Lazy.force report_env in
  let s = Dco3d_sta.Report.timing_summary t in
  Alcotest.(check bool) "mentions WNS" true
    (String.length s > 0 && String.sub s 0 4 = "WNS:")

let test_report_critical_path () =
  let nl, t = Lazy.force report_env in
  let s = Dco3d_sta.Report.critical_path_report nl t in
  let lines = String.split_on_char '
' s in
  (* header + column titles + at least one stage *)
  Alcotest.(check bool) "has stages" true (List.length lines >= 3);
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool) "names masters" true
    (List.exists
       (fun l ->
         List.exists (contains l) [ "_X1"; "_X2"; "_X4"; "_X8" ])
       lines)

let test_report_histogram () =
  let _, t = Lazy.force report_env in
  let s = Dco3d_sta.Report.histogram ~bins:5 t in
  let bars = String.split_on_char '
' s |> List.filter (fun l -> l <> "") in
  (* title + 5 bins *)
  Alcotest.(check int) "bins" 6 (List.length bars)

let suites =
  [
    ( "extras.ascii_map",
      [
        Alcotest.test_case "dimensions" `Quick test_render_dimensions;
        Alcotest.test_case "intensity order" `Quick test_render_intensity_order;
        Alcotest.test_case "constant map" `Quick test_render_constant_map;
        Alcotest.test_case "downsamples wide maps" `Quick test_render_downsamples_wide_maps;
        Alcotest.test_case "pair shares scale" `Quick test_render_pair_shares_scale;
        Alcotest.test_case "requires rank 2" `Quick test_render_requires_rank2;
      ] );
    ( "extras.critical_path",
      [
        Alcotest.test_case "structure" `Quick test_critical_path_structure;
        Alcotest.test_case "singleton design" `Quick test_critical_path_singleton_design;
      ] );
    ( "extras.report",
      [
        Alcotest.test_case "summary" `Quick test_report_summary;
        Alcotest.test_case "critical path report" `Quick test_report_critical_path;
        Alcotest.test_case "histogram" `Quick test_report_histogram;
      ] );
  ]
