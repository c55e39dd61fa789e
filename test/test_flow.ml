(* Integration tests for the Pin-3D flow emulation and its variants. *)

module Nl = Dco3d_netlist.Netlist
module Gen = Dco3d_netlist.Generator
module Flow = Dco3d_flow.Flow
module Pl = Dco3d_place.Placement
module Placer = Dco3d_place.Placer
module Params = Dco3d_place.Params
module Obs = Dco3d_obs.Obs

let ctx_env =
  lazy
    (let nl = Gen.generate ~scale:0.03 ~seed:11 (Gen.profile "DMA") in
     Flow.make_context ~gcell_nx:24 ~gcell_ny:24 nl)

let pin3d = lazy (Flow.run_pin3d (Lazy.force ctx_env))

let test_context_fixed_environment () =
  let ctx = Lazy.force ctx_env in
  Alcotest.(check bool) "positive clock" true (ctx.Flow.clock_period_ps > 0.);
  Alcotest.(check bool) "caps provisioned" true
    (ctx.Flow.route_cfg.Dco3d_route.Router.cap_h >= 4
    && ctx.Flow.route_cfg.Dco3d_route.Router.cap_v >= 4)

let test_pin3d_result_consistency () =
  let r = Lazy.force pin3d in
  Alcotest.(check string) "name" "Pin3D" r.Flow.flow_name;
  Alcotest.(check int) "overflow components"
    r.Flow.route.Dco3d_route.Router.overflow_total
    (r.Flow.route.Dco3d_route.Router.overflow_h
    + r.Flow.route.Dco3d_route.Router.overflow_v
    + r.Flow.route.Dco3d_route.Router.overflow_via);
  Alcotest.(check bool) "wns <= 0" true (r.Flow.signoff.Flow.wns_ps <= 0.);
  Alcotest.(check bool) "tns <= wns" true
    (r.Flow.signoff.Flow.tns_ps <= r.Flow.signoff.Flow.wns_ps);
  Alcotest.(check bool) "power positive" true (r.Flow.signoff.Flow.power_mw > 0.);
  Alcotest.(check bool) "signoff WL >= placement HPWL" true
    (r.Flow.signoff.Flow.wirelength_um >= r.Flow.place_stage.Flow.place_hpwl)

let test_signoff_optimize_improves_timing () =
  let ctx = Lazy.force ctx_env in
  let r = Lazy.force pin3d in
  let nl = Nl.copy ctx.Flow.nl in
  let net_is_3d nid =
    Pl.net_is_3d r.Flow.placement ctx.Flow.nl.Nl.nets.(nid)
  in
  let lengths = r.Flow.route.Dco3d_route.Router.net_length in
  let cfg =
    Dco3d_sta.Sta.default_config ~clock_period_ps:ctx.Flow.clock_period_ps
  in
  let before = Dco3d_sta.Sta.analyze cfg nl ~net_length:lengths ~net_is_3d in
  let upsized = Flow.signoff_optimize ctx nl ~net_length:lengths ~net_is_3d in
  let after = Dco3d_sta.Sta.analyze cfg nl ~net_length:lengths ~net_is_3d in
  Alcotest.(check bool) "some ECO work happened" true (upsized > 0);
  Alcotest.(check bool)
    (Printf.sprintf "tns improved (%.1f -> %.1f)" before.Dco3d_sta.Sta.tns
       after.Dco3d_sta.Sta.tns)
    true
    (after.Dco3d_sta.Sta.tns >= before.Dco3d_sta.Sta.tns)

let test_flow_deterministic () =
  let ctx = Lazy.force ctx_env in
  let a = Flow.run_pin3d ctx and b = Flow.run_pin3d ctx in
  Alcotest.(check int) "same overflow" a.Flow.place_stage.Flow.overflow
    b.Flow.place_stage.Flow.overflow;
  Alcotest.(check (float 1e-9)) "same tns" a.Flow.signoff.Flow.tns_ps
    b.Flow.signoff.Flow.tns_ps

let test_custom_placement_entry () =
  (* run_with_placement must accept an externally modified placement and
     produce a full result — the DCO-3D integration path *)
  let ctx = Lazy.force ctx_env in
  let r = Lazy.force pin3d in
  let p = Pl.copy r.Flow.placement in
  (* nudge some cells; the flow must still complete *)
  for c = 0 to min 20 (Nl.n_cells ctx.Flow.nl - 1) do
    p.Pl.x.(c) <- Float.max 0.1 (p.Pl.x.(c) -. 0.2)
  done;
  Dco3d_place.Placer.legalize p;
  let r' = Flow.run_with_placement ctx ~name:"custom" p in
  Alcotest.(check string) "name" "custom" r'.Flow.flow_name;
  Alcotest.(check bool) "routed" true
    (r'.Flow.route.Dco3d_route.Router.wirelength > 0.)

let test_bo_runs_and_reports_best_params () =
  let ctx = Lazy.force ctx_env in
  let r = Flow.run_pin3d_bo ~iterations:5 ctx in
  Alcotest.(check string) "name" "Pin3D + BO" r.Flow.flow_name;
  (* BO's probe objective is placement overflow; its pick should not be
     catastrophically worse than the default *)
  let base = Lazy.force pin3d in
  Alcotest.(check bool)
    (Printf.sprintf "bo %d vs pin3d %d" r.Flow.place_stage.Flow.overflow
       base.Flow.place_stage.Flow.overflow)
    true
    (r.Flow.place_stage.Flow.overflow
    <= (3 * base.Flow.place_stage.Flow.overflow) + 50)

let test_cong_variant_runs () =
  let ctx = Lazy.force ctx_env in
  let r = Flow.run_pin3d_cong ctx in
  Alcotest.(check string) "name" "Pin3D + Cong." r.Flow.flow_name;
  (* the congestion knobs must actually be on *)
  Alcotest.(check bool) "congestion knobs" true
    (r.Flow.params.Dco3d_place.Params.cong_restruct_effort > 0)

(* The context keeps its calibration placement: [run_pin3d] must
   return exactly what a fresh [global_place] at the default params
   returns, without placing again, and never the kept copy itself —
   mutating a result must not leak into the next run. *)
let test_baseline_reuse () =
  let was = Obs.enabled () in
  Obs.enable ();
  Fun.protect ~finally:(fun () -> if not was then Obs.disable ()) @@ fun () ->
  let nl = Gen.generate ~scale:0.03 ~seed:11 (Gen.profile "DMA") in
  let ctx = Flow.make_context ~gcell_nx:24 ~gcell_ny:24 nl in
  let fresh =
    Placer.global_place ~seed:ctx.Flow.seed ~params:Params.default nl
      ctx.Flow.fp
  in
  let same name (a : Pl.t) (b : Pl.t) =
    Alcotest.(check bool) (name ^ ": x") true (a.Pl.x = b.Pl.x);
    Alcotest.(check bool) (name ^ ": y") true (a.Pl.y = b.Pl.y);
    Alcotest.(check bool) (name ^ ": tier") true (a.Pl.tier = b.Pl.tier)
  in
  let solves0 = Obs.counter_value "place/cg_solves" in
  let r1 = Flow.run_pin3d ctx in
  Alcotest.(check int) "no placement solve ran" solves0
    (Obs.counter_value "place/cg_solves");
  same "first run == fresh global_place" fresh r1.Flow.placement;
  let p1 = r1.Flow.placement in
  p1.Pl.x.(0) <- p1.Pl.x.(0) +. 1.;
  p1.Pl.y.(1) <- p1.Pl.y.(1) +. 1.;
  p1.Pl.tier.(2) <- 1 - p1.Pl.tier.(2);
  let r2 = Flow.run_pin3d ctx in
  same "after mutating the first result" fresh r2.Flow.placement;
  Alcotest.(check bool) "each run gets its own copy" true
    (r2.Flow.placement.Pl.x != p1.Pl.x);
  Alcotest.(check string) "same route"
    (Dco3d_route.Router.digest r1.Flow.route)
    (Dco3d_route.Router.digest r2.Flow.route);
  (* other params still place *)
  let rc = Flow.run_pin3d_cong ctx in
  Alcotest.(check bool) "congestion params placed again" true
    (Obs.counter_value "place/cg_solves" > solves0);
  same "cong run == fresh cong global_place"
    (Placer.global_place ~seed:ctx.Flow.seed ~params:Params.congestion_focused
       nl ctx.Flow.fp)
    rc.Flow.placement

let suites =
  [
    ( "flow",
      [
        Alcotest.test_case "context environment" `Quick test_context_fixed_environment;
        Alcotest.test_case "pin3d consistency" `Quick test_pin3d_result_consistency;
        Alcotest.test_case "signoff ECO improves TNS" `Quick test_signoff_optimize_improves_timing;
        Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
        Alcotest.test_case "custom placement entry" `Quick test_custom_placement_entry;
        Alcotest.test_case "BO variant" `Slow test_bo_runs_and_reports_best_params;
        Alcotest.test_case "Cong variant" `Quick test_cong_variant_runs;
        Alcotest.test_case "baseline placement reused, not aliased" `Quick
          test_baseline_reuse;
      ] );
  ]
