(* Tests for the two-tier global router. *)

module T = Dco3d_tensor.Tensor
module Nl = Dco3d_netlist.Netlist
module Gen = Dco3d_netlist.Generator
module Fp = Dco3d_place.Floorplan
module Pl = Dco3d_place.Placement
module Placer = Dco3d_place.Placer
module Params = Dco3d_place.Params
module R = Dco3d_route.Router

let placed ?(scale = 0.02) ?(seed = 5) name =
  let nl = Gen.generate ~scale ~seed (Gen.profile name) in
  let fp = Fp.create nl in
  Placer.global_place ~seed:1 ~params:Params.default nl fp

let test_route_completes_all_nets () =
  let p = placed "DMA" in
  let r = R.route p in
  (* every signal net must have a routed length *)
  List.iter
    (fun (net : Nl.net) ->
      if r.R.net_length.(net.Nl.net_id) <= 0. then
        Alcotest.failf "net %d unrouted" net.Nl.net_id)
    (Nl.signal_nets p.Pl.nl);
  (* the clock net stays unrouted (CTS owns it) *)
  match Nl.clock_net p.Pl.nl with
  | Some clk ->
      Alcotest.(check (float 0.)) "clock not routed" 0.
        r.R.net_length.(clk.Nl.net_id)
  | None -> Alcotest.fail "expected a clock"

let test_wirelength_lower_bound () =
  (* routed length of a net can never beat its bounding-box
     half-perimeter (grid-quantized) *)
  let p = placed "DMA" in
  let r = R.route p in
  let fp = p.Pl.fp in
  let g = Fp.gcell_w fp +. Fp.gcell_h fp in
  List.iter
    (fun (net : Nl.net) ->
      let x0, y0, x1, y1 = Pl.net_bbox p net in
      let hp = x1 -. x0 +. (y1 -. y0) in
      let routed = r.R.net_length.(net.Nl.net_id) in
      (* one GCell of slack for quantization *)
      if routed +. (2. *. g) < hp then
        Alcotest.failf "net %d: routed %.2f < half-perimeter %.2f"
          net.Nl.net_id routed hp)
    (Nl.signal_nets p.Pl.nl);
  Alcotest.(check bool) "total WL >= 0.8 * HPWL" true
    (r.R.wirelength >= 0.8 *. Pl.hpwl p)

let test_overflow_consistency () =
  let p = placed "AES" in
  let r = R.route p in
  Alcotest.(check int) "total = H + V + via" r.R.overflow_total
    (r.R.overflow_h + r.R.overflow_v + r.R.overflow_via);
  Alcotest.(check bool) "gcell pct in range" true
    (r.R.overflow_gcell_pct >= 0. && r.R.overflow_gcell_pct <= 100.);
  (* congestion maps are consistent with the totals *)
  let map_sum =
    T.sum r.R.congestion.(0) +. T.sum r.R.congestion.(1)
  in
  Alcotest.(check (float 1e-6)) "maps sum to H+V overflow"
    (float_of_int (r.R.overflow_h + r.R.overflow_v))
    map_sum

let test_capacity_scaling_reduces_overflow () =
  let p = placed "AES" in
  let base_cfg = R.default_config p.Pl.fp in
  let tight = R.route ~config:{ base_cfg with R.cap_h = base_cfg.R.cap_h / 2;
                                cap_v = base_cfg.R.cap_v / 2 } p in
  let loose = R.route ~config:{ base_cfg with R.cap_h = base_cfg.R.cap_h * 2;
                                cap_v = base_cfg.R.cap_v * 2 } p in
  Alcotest.(check bool)
    (Printf.sprintf "tight %d > loose %d" tight.R.overflow_total loose.R.overflow_total)
    true
    (tight.R.overflow_total > loose.R.overflow_total)

let test_negotiation_helps () =
  (* rip-up-and-reroute must not increase overflow *)
  let p = placed "AES" in
  let cfg = R.default_config p.Pl.fp in
  let no_rr = R.route ~config:{ cfg with R.max_iterations = 0 } p in
  let rr = R.route ~config:{ cfg with R.max_iterations = 3 } p in
  Alcotest.(check bool)
    (Printf.sprintf "rr %d <= initial %d" rr.R.overflow_total no_rr.R.overflow_total)
    true
    (rr.R.overflow_total <= no_rr.R.overflow_total)

let test_route_deterministic () =
  let p = placed "DMA" in
  let a = R.route p and b = R.route p in
  Alcotest.(check int) "same overflow" a.R.overflow_total b.R.overflow_total;
  Alcotest.(check (float 1e-9)) "same WL" a.R.wirelength b.R.wirelength

let test_spread_placement_routes_better () =
  (* a congestion-focused placement must reduce routed overflow — the
     placement-stage mechanism of Table III *)
  let nl = Gen.generate ~scale:0.05 ~seed:5 (Gen.profile "AES") in
  let fp = Fp.create nl in
  let base = Placer.global_place ~seed:1 ~params:Params.default nl fp in
  let cong = Placer.global_place ~seed:1 ~params:Params.congestion_focused nl fp in
  (* one routing fabric, calibrated on the baseline, shared by both *)
  let config = R.calibrated_config base in
  let r_base = R.route ~config base and r_cong = R.route ~config cong in
  Alcotest.(check bool)
    (Printf.sprintf "cong %d <= base %d" r_cong.R.overflow_total
       r_base.R.overflow_total)
    true
    (r_cong.R.overflow_total <= r_base.R.overflow_total)

let test_utilization_maps () =
  let p = placed "DMA" in
  let r = R.route p in
  Array.iter
    (fun u ->
      Alcotest.(check bool) "non-negative utilization" true (T.min_elt u >= 0.);
      Alcotest.(check bool) "some demand" true (T.max_elt u > 0.))
    r.R.utilization

let test_congestion_maps_nonneg () =
  let p = placed "LDPC" in
  let r = R.route p in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "overflow map >= 0" true (T.min_elt c >= 0.))
    r.R.congestion

let test_heap_pop_empty_raises () =
  let h = R.Heap.create () in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> R.Heap.pop h);
  (* and again after a push/drain cycle *)
  R.Heap.push h 1.5 7;
  R.Heap.push h 0.5 3;
  Alcotest.(check int) "min value" 3 (R.Heap.pop h);
  Alcotest.(check int) "next value" 7 (R.Heap.pop h);
  Alcotest.(check bool) "drained" true (R.Heap.is_empty h);
  raises (fun () -> R.Heap.pop h)

(* Reference binary heap with the textbook swap sifts.  The router's
   heap must pop the same values in the same order, ties included: A*
   pop order decides which of several equal-cost paths a net takes. *)
module Swap_heap = struct
  type t = { mutable keys : float array; mutable vals : int array; mutable len : int }

  let create () = { keys = Array.make 4 0.; vals = Array.make 4 0; len = 0 }

  let swap h a b =
    let k = h.keys.(a) and v = h.vals.(a) in
    h.keys.(a) <- h.keys.(b);
    h.vals.(a) <- h.vals.(b);
    h.keys.(b) <- k;
    h.vals.(b) <- v

  let push h k v =
    if h.len = Array.length h.keys then begin
      h.keys <- Array.append h.keys (Array.make h.len 0.);
      h.vals <- Array.append h.vals (Array.make h.len 0)
    end;
    h.keys.(h.len) <- k;
    h.vals.(h.len) <- v;
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && h.keys.((!i - 1) / 2) > h.keys.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    let v = h.vals.(0) in
    h.len <- h.len - 1;
    h.keys.(0) <- h.keys.(h.len);
    h.vals.(0) <- h.vals.(h.len);
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.len && h.keys.(l) < h.keys.(!s) then s := l;
      if r < h.len && h.keys.(r) < h.keys.(!s) then s := r;
      if !s <> !i then begin
        swap h !s !i;
        i := !s
      end
      else go := false
    done;
    v
end

(* ops: [Some k] pushes key k (drawn from four values, so most keys
   tie) with a fresh value, [None] pops when non-empty; both heaps are
   drained at the end *)
let prop_heap_matches_swap_heap =
  QCheck.Test.make ~name:"heap pops like a swap-sift heap, ties included"
    ~count:200
    QCheck.(list_of_size Gen.(0 -- 600) (option (int_bound 3)))
    (fun ops ->
      let h = R.Heap.create () and r = Swap_heap.create () in
      let next = ref 0 in
      let ok = ref true in
      let pop_both () =
        if R.Heap.pop h <> Swap_heap.pop r then ok := false
      in
      List.iter
        (function
          | Some k ->
              let key = 0.5 *. float_of_int k in
              R.Heap.push h key !next;
              Swap_heap.push r key !next;
              incr next
          | None -> if not (R.Heap.is_empty h) then pop_both ())
        ops;
      while not (R.Heap.is_empty h) do
        pop_both ()
      done;
      !ok && r.Swap_heap.len = 0)

let with_jobs n f =
  Dco3d_parallel.Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Dco3d_parallel.Pool.set_jobs 1) f

(* [~validate:true] makes the router itself check that demand equals
   the per-edge sum over committed paths, that the incidence index
   agrees and that every cached edge cost equals its recomputation bit
   for bit — run it under both a sequential and a true multi-domain
   schedule *)
let test_demand_conservation () =
  let p = placed "DMA" in
  ignore (R.route ~validate:true p);
  with_jobs 4 (fun () -> ignore (R.route ~validate:true p));
  (* the pinned-digest case overflows, so rip-up and re-commit run, on
     the cold route and on a warm start from it *)
  let p = placed ~scale:0.05 "DMA" in
  let cfg = R.calibrated_config p in
  let q = Placer.perturb ~seed:3 ~fraction:0.05 p in
  let cold_and_warm () =
    let cold = R.route ~validate:true ~config:cfg p in
    Alcotest.(check bool) "cold route rips up" true (cold.R.iterations_run > 1);
    ignore (R.route ~validate:true ~config:cfg ~warm_start:(cold, p) q)
  in
  cold_and_warm ();
  with_jobs 4 cold_and_warm

(* the whole point of the wave construction: routing results are
   bit-identical at any job count *)
let test_jobs_invariant_digest () =
  let p = placed "AES" ~scale:0.03 in
  let seq = R.route p in
  let par = with_jobs 4 (fun () -> R.route p) in
  Alcotest.(check string) "digest jobs=1 == jobs=4" (R.digest seq)
    (R.digest par)

(* warm start on an unchanged placement short-circuits to the previous
   result verbatim: every endpoint bin is unchanged, so the stored
   result IS the cold result — bit-identical at any job count (the
   property-test side of the cache-replay contract) *)
let test_warm_unchanged_bit_identical () =
  let p = placed "DMA" in
  let cfg = R.calibrated_config p in
  let cold = R.route ~config:cfg p in
  let warm1 = R.route ~config:cfg ~warm_start:(cold, p) p in
  Alcotest.(check string) "warm(unchanged) == cold, jobs=1" (R.digest cold)
    (R.digest warm1);
  let warm4 =
    with_jobs 4 (fun () -> R.route ~config:cfg ~warm_start:(cold, p) p)
  in
  Alcotest.(check string) "warm(unchanged) == cold, jobs=4" (R.digest cold)
    (R.digest warm4)

let test_warm_perturbed_jobs_invariant () =
  let p = placed "DMA" in
  let cfg = R.calibrated_config p in
  let cold = R.route ~config:cfg p in
  let q = Placer.perturb ~seed:3 ~fraction:0.05 p in
  let w1 = R.route ~config:cfg ~warm_start:(cold, p) q in
  let w4 =
    with_jobs 4 (fun () -> R.route ~config:cfg ~warm_start:(cold, p) q)
  in
  Alcotest.(check string) "warm digest jobs=1 == jobs=4" (R.digest w1)
    (R.digest w4)

(* the incremental contract: a warm start on a perturbed placement must
   actually reuse kept paths (counters) and stay congestion-faithful —
   overflow and wirelength within 5% of a cold route of the same
   placement *)
let test_warm_reuse_and_parity () =
  let module Obs = Dco3d_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.reset ())
    (fun () ->
      let p = placed "DMA" in
      let cfg = R.calibrated_config p in
      let cold = R.route ~config:cfg p in
      let q = Placer.perturb ~seed:3 ~fraction:0.05 p in
      let cold_q = R.route ~config:cfg q in
      let reused0 = Obs.counter_value "route/warm/reused" in
      let ripped0 = Obs.counter_value "route/warm/ripped" in
      let warm = R.route ~config:cfg ~warm_start:(cold, p) q in
      let reused = Obs.counter_value "route/warm/reused" - reused0 in
      let ripped = Obs.counter_value "route/warm/ripped" - ripped0 in
      Alcotest.(check bool)
        (Printf.sprintf "reused %d > 0" reused)
        true (reused > 0);
      Alcotest.(check bool)
        (Printf.sprintf "ripped %d > 0" ripped)
        true (ripped > 0);
      Alcotest.(check int) "reused + ripped covers every signal net"
        (List.length (Nl.signal_nets p.Pl.nl))
        (reused + ripped);
      Alcotest.(check bool)
        (Printf.sprintf "warm overflow %d within 5%% of cold %d"
           warm.R.overflow_total cold_q.R.overflow_total)
        true
        (float_of_int warm.R.overflow_total
        <= 1.05 *. Float.max 1. (float_of_int cold_q.R.overflow_total));
      let wl_dev =
        abs_float (warm.R.wirelength -. cold_q.R.wirelength)
        /. Float.max 1. cold_q.R.wirelength
      in
      Alcotest.(check bool)
        (Printf.sprintf "warm WL within 5%% of cold (dev %.2f%%)"
           (100. *. wl_dev))
        true (wl_dev <= 0.05))

let test_warm_mismatch_raises () =
  let p = placed "DMA" in
  let cfg = R.calibrated_config p in
  let cold = R.route ~config:cfg p in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* a warm start is only sound against the same netlist, grid and
     config — anything else must be rejected, not silently re-keyed *)
  raises (fun () ->
      R.route
        ~config:{ cfg with R.max_iterations = cfg.R.max_iterations + 1 }
        ~warm_start:(cold, p) p);
  let other = placed "AES" in
  raises (fun () -> R.route ~config:cfg ~warm_start:(cold, p) other);
  let nl = Gen.generate ~scale:0.02 ~seed:5 (Gen.profile "DMA") in
  let fp32 = Fp.create ~gcell_nx:32 ~gcell_ny:32 nl in
  let p32 = Placer.global_place ~seed:1 ~params:Params.default nl fp32 in
  raises (fun () -> R.route ~config:cfg ~warm_start:(cold, p) p32)

(* Router output pinned to values recorded before the A* loop and the
   heap were rewritten for speed: [R.digest] (overflow, lengths, maps)
   and the committed edge paths of every net, for a cold route and a
   warm start from it, plus the work each did (A* pops, ripped nets),
   so a change of pop order fails even where the digests coincide.
   DMA at scale 0.05 overflows under its calibrated config, so repair
   waves and A* run. *)
let test_pinned_route_digests () =
  let module Obs = Dco3d_obs.Obs in
  let p = placed ~scale:0.05 "DMA" in
  let cfg = R.calibrated_config p in
  let edges_md5 (r : R.result) =
    Digest.to_hex (Digest.string (Marshal.to_string r.R.net_edges []))
  in
  (* counter deltas, with recording on for the call only *)
  let counted f =
    let was_enabled = Obs.enabled () in
    Obs.enable ();
    Fun.protect
      ~finally:(fun () -> if not was_enabled then Obs.disable ())
      (fun () ->
        let pops0 = Obs.counter_value "route/astar_pops"
        and ripped0 = Obs.counter_value "route/ripped_nets" in
        let r = f () in
        ( r,
          Obs.counter_value "route/astar_pops" - pops0,
          Obs.counter_value "route/ripped_nets" - ripped0 ))
  in
  let cold, cold_pops, cold_ripped = counted (fun () -> R.route ~config:cfg p) in
  let q = Placer.perturb ~seed:3 ~fraction:0.05 p in
  let warm, warm_pops, warm_ripped =
    counted (fun () -> R.route ~config:cfg ~warm_start:(cold, p) q)
  in
  Alcotest.(check bool) "cold route overflows (A* repair ran)" true
    (cold.R.overflow_total > 0);
  Alcotest.(check string) "cold digest" "2eb2e356353e67c28fc2160e7d7cb6cc"
    (R.digest cold);
  Alcotest.(check string) "cold paths" "258bd943ff50b2f6ae72b25902dc371f"
    (edges_md5 cold);
  Alcotest.(check string) "warm digest" "646d1b1376d75bb2265a3f34348009cc"
    (R.digest warm);
  Alcotest.(check string) "warm paths" "62f5457f6ff4cc5bd6951eb1f31899ed"
    (edges_md5 warm);
  Alcotest.(check int) "cold A* pops" 145670 cold_pops;
  Alcotest.(check int) "cold ripped nets" 873 cold_ripped;
  Alcotest.(check int) "warm A* pops" 34336 warm_pops;
  Alcotest.(check int) "warm ripped nets" 149 warm_ripped

let suites =
  [
    ( "route.router",
      [
        Alcotest.test_case "routes all signal nets" `Quick test_route_completes_all_nets;
        Alcotest.test_case "wirelength lower bound" `Quick test_wirelength_lower_bound;
        Alcotest.test_case "overflow consistency" `Quick test_overflow_consistency;
        Alcotest.test_case "capacity scaling" `Quick test_capacity_scaling_reduces_overflow;
        Alcotest.test_case "negotiation helps" `Quick test_negotiation_helps;
        Alcotest.test_case "deterministic" `Quick test_route_deterministic;
        Alcotest.test_case "spread placement routes better" `Slow test_spread_placement_routes_better;
        Alcotest.test_case "utilization maps" `Quick test_utilization_maps;
        Alcotest.test_case "congestion maps non-negative" `Quick test_congestion_maps_nonneg;
        Alcotest.test_case "heap pop on empty raises" `Quick test_heap_pop_empty_raises;
        QCheck_alcotest.to_alcotest prop_heap_matches_swap_heap;
        Alcotest.test_case "demand conservation" `Quick test_demand_conservation;
        Alcotest.test_case "jobs-invariant digest" `Quick test_jobs_invariant_digest;
        Alcotest.test_case "warm unchanged bit-identical" `Quick test_warm_unchanged_bit_identical;
        Alcotest.test_case "warm perturbed jobs-invariant" `Quick test_warm_perturbed_jobs_invariant;
        Alcotest.test_case "warm reuse and parity" `Quick test_warm_reuse_and_parity;
        Alcotest.test_case "warm mismatch raises" `Quick test_warm_mismatch_raises;
        Alcotest.test_case "pinned cold and warm digests" `Quick test_pinned_route_digests;
      ] );
  ]
