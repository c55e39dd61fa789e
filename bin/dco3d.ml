(* dco3d — command-line front end for the DCO-3D reproduction.

   Subcommands cover the building blocks of the flow: netlist
   generation, 3D placement, global routing, full flow runs (Pin-3D
   and its variants), predictor training (Algorithm 1) and
   differentiable congestion optimization (Algorithm 2) with TCL
   export. *)

module Nl = Dco3d_netlist.Netlist
module Gen = Dco3d_netlist.Generator
module Nio = Dco3d_netlist.Netlist_io
module P = Dco3d_place
module Router = Dco3d_route.Router
module Route_cache = Dco3d_route.Route_cache
module Flow = Dco3d_flow.Flow
module Thermal = Dco3d_thermal.Thermal
module Dataset = Dco3d_core.Dataset
module Predictor = Dco3d_core.Predictor
module Dco = Dco3d_core.Dco
module Tcl = Dco3d_core.Tcl_export
module Obs = Dco3d_obs.Obs
module Pool = Dco3d_parallel.Pool
module SiaUNet = Dco3d_nn.Siamese_unet
module Fm = Dco3d_congestion.Feature_maps
module Corpus = Dco3d_corpus.Corpus
module Server = Dco3d_serve.Server
module Client = Dco3d_serve.Client
module Proto = Dco3d_serve.Protocol
module Shard = Dco3d_serve.Shard
module Balance = Dco3d_serve.Balance

open Cmdliner

(* A dying client must surface as a per-connection EPIPE, not kill the
   daemon (or any other subcommand writing to a closed pipe). *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let setup verbose trace_out jobs =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning));
  Option.iter Obs.set_trace_path trace_out;
  Option.iter Pool.set_jobs jobs

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Chatty progress output.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record stage spans and write a Chrome-trace JSON to $(docv) at            exit (open in chrome://tracing or Perfetto).  Equivalent to            setting DCO3D_TRACE=$(docv).")

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel kernels and routing repair            (overrides DCO3D_JOBS; clamped to the hardware core count).")

(* every subcommand shares logging + tracing + pool setup as its first
   term *)
let setup_t = Term.(const setup $ verbose_t $ trace_t $ jobs_t)

let design_t =
  Arg.(
    value
    & opt string "DMA"
    & info [ "d"; "design" ] ~docv:"NAME"
        ~doc:"Benchmark design: DMA, AES, ECG, LDPC, VGA or Rocket.")

let scale_t =
  Arg.(
    value
    & opt float 0.2
    & info [ "s"; "scale" ] ~docv:"F"
        ~doc:
          "Netlist scale factor (1.0 = the published Table-III sizes, \
           13K-120K cells).")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let gcell_t =
  Arg.(
    value & opt int 48
    & info [ "gcell" ] ~docv:"N" ~doc:"GCell grid dimension (N x N).")

let netlist_of design scale seed =
  Gen.generate ~scale ~seed (Gen.profile design)

let route_cache_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "route-cache" ] ~docv:"DIR"
        ~doc:
          "Content-addressed route cache: routing results are persisted            under $(docv) keyed by netlist, GCell-binned placement and            config, and replayed bit-identically on repeat runs.  Safe            to share between concurrent processes and shards.")

let route_cache_of = Option.map Route_cache.create

let corpus_cache_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus-cache" ] ~docv:"DIR"
        ~doc:
          "On-disk PPA row store for corpus cells: evaluated            (design x config) cells are persisted under $(docv) and            replayed verbatim on repeat runs.  Safe to share between            concurrent processes and shards.")

(* ------------------------------------------------------------------ *)
(* gen                                                                  *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let run () design scale seed output =
    let nl = netlist_of design scale seed in
    (match output with
    | Some path ->
        Nio.write nl path;
        Printf.printf "wrote %s\n" path
    | None -> ());
    print_endline (Nl.stats nl);
    Printf.printf "logic depth: %d\n" (Nl.logic_depth nl)
  in
  let output_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the netlist here.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark netlist and print statistics.")
    Term.(const run $ setup_t $ design_t $ scale_t $ seed_t $ output_t)

(* ------------------------------------------------------------------ *)
(* place                                                                *)
(* ------------------------------------------------------------------ *)

let preset_t =
  Arg.(
    value
    & opt (enum [ ("default", `Default); ("congestion", `Congestion) ]) `Default
    & info [ "params" ] ~docv:"PRESET"
        ~doc:"Placement knob preset: $(b,default) (Pin-3D) or \
              $(b,congestion) (Pin-3D+Cong.).")

let place_cmd =
  let run () design scale seed gcell preset tcl_out =
    let nl = netlist_of design scale seed in
    let fp = P.Floorplan.create ~gcell_nx:gcell ~gcell_ny:gcell nl in
    let params =
      match preset with
      | `Default -> P.Params.default
      | `Congestion -> P.Params.congestion_focused
    in
    let p = P.Placer.global_place ~seed ~params nl fp in
    Printf.printf "HPWL: %.1f um\ncut size: %d (%d signal nets)\n"
      (P.Placement.hpwl p) (P.Placement.cut_size p)
      (List.length (Nl.signal_nets nl));
    Printf.printf "tier balance: %.4f\n" (P.Placement.tier_balance p);
    (match P.Placer.legal_check p with
    | Ok () -> print_endline "legalization: OK"
    | Error e -> Printf.printf "legalization: FAILED (%s)\n" e);
    match tcl_out with
    | Some path ->
        Tcl.write p path;
        Printf.printf "wrote %s\n" path
    | None -> ()
  in
  let tcl_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcl" ] ~docv:"FILE" ~doc:"Export the placement as TCL.")
  in
  Cmd.v
    (Cmd.info "place" ~doc:"Run the 3D global placer and report quality.")
    Term.(
      const run $ setup_t $ design_t $ scale_t $ seed_t $ gcell_t $ preset_t
      $ tcl_t)

(* ------------------------------------------------------------------ *)
(* route                                                                *)
(* ------------------------------------------------------------------ *)

let route_cmd =
  let run () design scale seed gcell preset warm_check =
    let nl = netlist_of design scale seed in
    let fp = P.Floorplan.create ~gcell_nx:gcell ~gcell_ny:gcell nl in
    let params =
      match preset with
      | `Default -> P.Params.default
      | `Congestion -> P.Params.congestion_focused
    in
    let base = P.Placer.global_place ~seed ~params:P.Params.default nl fp in
    let config = Router.calibrated_config base in
    let p =
      if params == P.Params.default then base
      else P.Placer.global_place ~seed ~params nl fp
    in
    (* the warm-check gate reads the route/warm/* counters, which only
       record once observability is on *)
    if warm_check then Obs.enable ();
    let r = Router.route ~config p in
    Printf.printf
      "overflow: %d total (H %d, V %d, via %d)\noverflowed gcells: %.2f%%\n\
       routed wirelength: %.1f um (HPWL %.1f)\nrip-up iterations: %d\n"
      r.Router.overflow_total r.Router.overflow_h r.Router.overflow_v
      r.Router.overflow_via r.Router.overflow_gcell_pct r.Router.wirelength
      (P.Placement.hpwl p) r.Router.iterations_run;
    if warm_check then begin
      (* Perturb a few percent of the cells by sub-GCell distances (an
         ECO-sized delta), then route the perturbed placement twice:
         cold from scratch, and warm-started from the base result.
         The gate asserts the warm start actually reused paths, won
         >=2x wall clock, and stayed congestion-faithful (overflow and
         wirelength within 5% of the cold route). *)
      let perturbed = P.Placer.perturb ~seed ~fraction:0.02 p in
      let time_best f =
        (* best of 3: smoke runs share loaded CI hosts *)
        let best = ref infinity in
        let out = ref None in
        for _ = 1 to 3 do
          let t0 = Unix.gettimeofday () in
          let r = f () in
          let ms = (Unix.gettimeofday () -. t0) *. 1000. in
          if ms < !best then best := ms;
          out := Some r
        done;
        (Option.get !out, !best)
      in
      let cold, cold_ms = time_best (fun () -> Router.route ~config perturbed) in
      let reused0 = Obs.counter_value "route/warm/reused" in
      let warm, warm_ms =
        time_best (fun () -> Router.route ~config ~warm_start:(r, p) perturbed)
      in
      let reused = Obs.counter_value "route/warm/reused" - reused0 in
      let ripped = Obs.counter_value "route/warm/ripped" in
      let speedup = cold_ms /. Float.max 1e-6 warm_ms in
      Printf.printf
        "warm-check: cold %.1f ms, warm %.1f ms (%.2fx), reused %d / ripped \
         %d\n\
         warm-check: overflow cold %d / warm %d, WL cold %.1f / warm %.1f\n\
         warm-check: warm digest %s\n"
        cold_ms warm_ms speedup reused ripped cold.Router.overflow_total
        warm.Router.overflow_total cold.Router.wirelength
        warm.Router.wirelength
        (Router.digest warm);
      let fail = ref false in
      if reused <= 0 then begin
        prerr_endline "warm-check: FAIL: warm start reused no nets";
        fail := true
      end;
      if speedup < 2.0 then begin
        Printf.eprintf
          "warm-check: FAIL: warm %.1f ms vs cold %.1f ms (%.2fx < 2.0x)\n"
          warm_ms cold_ms speedup;
        fail := true
      end;
      (* one-sided: a warm route that finds *less* overflow is fine *)
      if
        float_of_int warm.Router.overflow_total
        > 1.05 *. Float.max 1. (float_of_int cold.Router.overflow_total)
      then begin
        Printf.eprintf
          "warm-check: FAIL: warm overflow %d exceeds cold %d by more than \
           5%%\n"
          warm.Router.overflow_total cold.Router.overflow_total;
        fail := true
      end;
      let wl_dev =
        abs_float (warm.Router.wirelength -. cold.Router.wirelength)
        /. Float.max 1. cold.Router.wirelength
      in
      if wl_dev > 0.05 then begin
        Printf.eprintf
          "warm-check: FAIL: warm wirelength deviates %.1f%% from cold\n"
          (100. *. wl_dev);
        fail := true
      end;
      if !fail then exit 1;
      print_endline "warm-check: OK"
    end
  in
  let warm_check_t =
    Arg.(
      value & flag
      & info [ "warm-check" ]
          ~doc:
            "After the cold route, perturb the placement slightly,            re-route it cold and warm-started, and fail unless the warm            start reused paths, ran at least 2x faster, and matched the            cold route's overflow and wirelength within 5%.  The CI            smoke gate for incremental routing.")
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Place and globally route; report congestion.")
    Term.(
      const run $ setup_t $ design_t $ scale_t $ seed_t $ gcell_t $ preset_t
      $ warm_check_t)

(* ------------------------------------------------------------------ *)
(* timing                                                               *)
(* ------------------------------------------------------------------ *)

let timing_cmd =
  let run () design scale seed gcell =
    let nl = netlist_of design scale seed in
    let fp = P.Floorplan.create ~gcell_nx:gcell ~gcell_ny:gcell nl in
    let p = P.Placer.global_place ~seed ~params:P.Params.default nl fp in
    let config = Router.calibrated_config p in
    let r = Router.route ~config p in
    let net_is_3d nid = P.Placement.net_is_3d p nl.Nl.nets.(nid) in
    let period =
      Dco3d_sta.Sta.suggest_period nl ~net_length:r.Router.net_length
        ~net_is_3d
    in
    let cfg = Dco3d_sta.Sta.default_config ~clock_period_ps:period in
    let t =
      Dco3d_sta.Sta.analyze cfg nl ~net_length:r.Router.net_length ~net_is_3d
    in
    Printf.printf "clock period: %.1f ps

%s

%s
%s"
      period
      (Dco3d_sta.Report.timing_summary t)
      (Dco3d_sta.Report.critical_path_report nl t)
      (Dco3d_sta.Report.histogram t)
  in
  Cmd.v
    (Cmd.info "timing"
       ~doc:"Place, route and report post-route timing (critical path,              slack histogram).")
    Term.(const run $ setup_t $ design_t $ scale_t $ seed_t $ gcell_t)

(* ------------------------------------------------------------------ *)
(* flow                                                                 *)
(* ------------------------------------------------------------------ *)

let flow_cmd =
  let run () design scale seed gcell which bo_iters cache_dir =
    let nl = netlist_of design scale seed in
    let ctx =
      Flow.make_context ~seed ~gcell_nx:gcell ~gcell_ny:gcell
        ?route_cache:(route_cache_of cache_dir) nl
    in
    let results =
      match which with
      | `Pin3d -> [ Flow.run_pin3d ctx ]
      | `Cong -> [ Flow.run_pin3d_cong ctx ]
      | `Bo -> [ Flow.run_pin3d_bo ~iterations:bo_iters ctx ]
      | `All ->
          [
            Flow.run_pin3d ctx;
            Flow.run_pin3d_cong ctx;
            Flow.run_pin3d_bo ~iterations:bo_iters ctx;
          ]
    in
    Printf.printf "clock period: %.1f ps\n" ctx.Flow.clock_period_ps;
    List.iter (fun r -> Format.printf "%a@." Flow.pp_result r) results
  in
  let which_t =
    Arg.(
      value
      & opt
          (enum
             [ ("pin3d", `Pin3d); ("cong", `Cong); ("bo", `Bo); ("all", `All) ])
          `Pin3d
      & info [ "variant" ] ~docv:"V"
          ~doc:"Flow variant: $(b,pin3d), $(b,cong), $(b,bo) or $(b,all).")
  in
  let bo_t =
    Arg.(
      value & opt int 12
      & info [ "bo-iterations" ] ~docv:"N" ~doc:"BO evaluation budget.")
  in
  Cmd.v
    (Cmd.info "flow" ~doc:"Run a full Pin-3D flow variant and report PPA.")
    Term.(
      const run $ setup_t $ design_t $ scale_t $ seed_t $ gcell_t $ which_t
      $ bo_t $ route_cache_t)

(* A freshly initialized network behind the same checks a model file
   gets at load: a --input-hw the network cannot take fails here, at
   startup, not on the first forward. *)
let untrained_predictor ~seed ~input_hw =
  let net =
    SiaUNet.create (Dco3d_tensor.Rng.create seed)
      { SiaUNet.default_config with SiaUNet.base_channels = 8 }
  in
  try Predictor.make net ~input_hw ~label_scale:1.0
  with Invalid_argument msg ->
    prerr_endline ("dco3d: " ^ msg);
    exit 2

(* A model file that cannot serve is one line naming the path and the
   cause, and exit 1. *)
let load_model path =
  try Predictor.load path
  with Predictor.Load_error msg ->
    prerr_endline ("dco3d: " ^ msg);
    exit 1

(* ------------------------------------------------------------------ *)
(* train                                                                *)
(* ------------------------------------------------------------------ *)

let train_cmd =
  let run () design scale seed gcell n_samples epochs input_hw output cache_dir
      =
    (* reject a bad --input-hw before the dataset build, not after it *)
    ignore (untrained_predictor ~seed ~input_hw);
    let nl = netlist_of design scale seed in
    let route_cache = route_cache_of cache_dir in
    let ctx =
      Flow.make_context ~seed ~gcell_nx:gcell ~gcell_ny:gcell ?route_cache nl
    in
    let d =
      Dataset.build ~n_samples ~seed ?route_cache
        ~route_cfg:ctx.Flow.route_cfg nl ctx.Flow.fp
    in
    let train, test = Dataset.split ~test_fraction:0.2 ~seed d in
    let predictor, report =
      Predictor.train ~epochs ~input_hw ~seed ~train ~test ()
    in
    Array.iteri
      (fun e l ->
        Printf.printf "epoch %2d: train %.4f  test %.4f\n" (e + 1) l
          report.Predictor.test_loss.(e))
      report.Predictor.train_loss;
    let metrics = Predictor.evaluate predictor test in
    let avg f = match metrics with
      | [] -> 0.
      | _ ->
          List.fold_left (fun a m -> a +. f m) 0. metrics
          /. float_of_int (List.length metrics)
    in
    Printf.printf "test NRMSE %.3f, SSIM %.3f\n" (avg fst) (avg snd);
    (try Predictor.save predictor output
     with Sys_error msg ->
       Printf.eprintf "dco3d: cannot save the predictor to %s: %s\n" output msg;
       exit 1);
    Printf.printf "saved predictor to %s (fingerprint %s)\n" output
      (Predictor.fingerprint predictor)
  in
  let samples_t =
    Arg.(
      value & opt int 24
      & info [ "samples" ] ~docv:"N" ~doc:"Layouts in the dataset.")
  in
  let epochs_t =
    Arg.(value & opt int 12 & info [ "epochs" ] ~docv:"N" ~doc:"Training epochs.")
  in
  let hw_t =
    Arg.(
      value & opt int 32
      & info [ "input-hw" ] ~docv:"N" ~doc:"Network resolution (paper: 224).")
  in
  let out_t =
    Arg.(
      value
      & opt string "predictor.bin"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to save the model.")
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:"Build a congestion dataset and train the Siamese UNet \
             (Algorithm 1).")
    Term.(
      const run $ setup_t $ design_t $ scale_t $ seed_t $ gcell_t $ samples_t
      $ epochs_t $ hw_t $ out_t $ route_cache_t)

(* ------------------------------------------------------------------ *)
(* optimize (Algorithm 2, end to end)                                   *)
(* ------------------------------------------------------------------ *)

let optimize_cmd =
  let run () design scale seed gcell n_samples epochs iterations tcl_out
      cache_dir =
    let nl = netlist_of design scale seed in
    let route_cache = route_cache_of cache_dir in
    let ctx =
      Flow.make_context ~seed ~gcell_nx:gcell ~gcell_ny:gcell ?route_cache nl
    in
    let d =
      Dataset.build ~n_samples ~seed ?route_cache
        ~route_cfg:ctx.Flow.route_cfg nl ctx.Flow.fp
    in
    let train, test = Dataset.split ~test_fraction:0.2 ~seed d in
    let predictor, _ = Predictor.train ~epochs ~seed ~train ~test () in
    let pin3d = Flow.run_pin3d ctx in
    let config = { Dco.default_config with Dco.iterations; seed } in
    let optimized, report = Dco.optimize ~config ~predictor pin3d.Flow.placement in
    let dco = Flow.run_with_placement ctx ~name:"DCO-3D" optimized in
    Printf.printf "clock period: %.1f ps\n" ctx.Flow.clock_period_ps;
    Format.printf "%a@.%a@." Flow.pp_result pin3d Flow.pp_result dco;
    Printf.printf
      "DCO: predicted congestion %.4f -> %.4f, cut %d -> %d, %d tier moves, \
       mean displacement %.3f um\n"
      report.Dco.predicted_cong_start report.Dco.predicted_cong_end
      report.Dco.cut_start report.Dco.cut_end report.Dco.tier_moves
      report.Dco.mean_displacement;
    match tcl_out with
    | Some path ->
        Tcl.write ~only_moved_from:pin3d.Flow.placement optimized path;
        Printf.printf "wrote spreading constraints to %s\n" path
    | None -> ()
  in
  let samples_t =
    Arg.(
      value & opt int 16
      & info [ "samples" ] ~docv:"N" ~doc:"Dataset layouts to generate.")
  in
  let epochs_t =
    Arg.(value & opt int 10 & info [ "epochs" ] ~docv:"N" ~doc:"Training epochs.")
  in
  let iters_t =
    Arg.(
      value & opt int 60
      & info [ "iterations" ] ~docv:"N" ~doc:"Algorithm-2 gradient steps.")
  in
  let tcl_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcl" ] ~docv:"FILE"
          ~doc:"Export the cell-spreading decisions as TCL constraints.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Full DCO-3D: train the predictor, optimize the placement \
             (Algorithm 2), finish the flow, compare against Pin-3D.")
    Term.(
      const run $ setup_t $ design_t $ scale_t $ seed_t $ gcell_t $ samples_t
      $ epochs_t $ iters_t $ tcl_t $ route_cache_t)

(* ------------------------------------------------------------------ *)
(* serve / client                                                       *)
(* ------------------------------------------------------------------ *)

let socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (default dco3d.sock unless --port            is given).")

let port_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N"
        ~doc:"Listen on (or connect to) TCP 127.0.0.1:$(docv) instead of            a Unix-domain socket.  0 picks a free port.")

let address_of socket port =
  match (socket, port) with
  | Some _, Some _ ->
      prerr_endline "dco3d: --socket and --port are mutually exclusive";
      exit 2
  | _, Some p -> Server.Tcp ("127.0.0.1", p)
  | Some s, None -> Server.Unix_path s
  | None, None -> Server.Unix_path "dco3d.sock"

let pp_address = function
  | Server.Unix_path p -> Printf.sprintf "unix:%s" p
  | Server.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

(* ------------------------------------------------------------------ *)
(* thermal                                                              *)
(* ------------------------------------------------------------------ *)

let thermal_cmd =
  let run () design scale seed gcell epsilon iterations check =
    let nl = netlist_of design scale seed in
    let ctx = Flow.make_context ~seed ~gcell_nx:gcell ~gcell_ny:gcell nl in
    let base = P.Placer.global_place ~seed ~params:P.Params.default nl ctx.Flow.fp in
    let solve p = Thermal.solve_placement p in
    (* power-weighted mean = the temperature the average milliwatt sees;
       tracks the penalty's objective more directly than the grid mean *)
    let weighted_c p (r : Thermal.result) =
      let module T = Dco3d_tensor.Tensor in
      let pw = Thermal.placement_power p in
      let dens =
        Thermal.power_density p ~power:pw ~nx:(T.dim r.Thermal.grid 2)
          ~ny:(T.dim r.Thermal.grid 1)
      in
      let num = ref 0. and den = ref 0. in
      for i = 0 to T.numel dens - 1 do
        num := !num +. (T.get_flat dens i *. T.get_flat r.Thermal.grid i);
        den := !den +. T.get_flat dens i
      done;
      !num /. Float.max 1e-12 !den
    in
    let tier_peak (r : Thermal.result) tier =
      let module T = Dco3d_tensor.Tensor in
      let g = r.Thermal.grid in
      let peak = ref neg_infinity in
      for y = 0 to T.dim g 1 - 1 do
        for x = 0 to T.dim g 2 - 1 do
          if T.get3 g tier y x > !peak then peak := T.get3 g tier y x
        done
      done;
      !peak
    in
    let report tag p (r : Thermal.result) =
      let ovf = (Router.route ~config:ctx.Flow.route_cfg p).Router.overflow_total in
      Printf.printf
        "%-12s peak %6.2f C (T0 %6.2f, T1 %6.2f)  avg %6.2f C  weighted \
         %6.2f C  overflow %6d  (CG %s, %d iters)\n%!"
        tag r.Thermal.peak_c (tier_peak r 0) (tier_peak r 1) r.Thermal.avg_c
        (weighted_c p r) ovf
        (Dco3d_tensor.Linalg.string_of_cg_status r.Thermal.cg_status)
        r.Thermal.cg_iters;
      ovf
    in
    if not check then begin
      let r = solve base in
      ignore (report "baseline" base r);
      (* per-tier summary of the map itself *)
      let t = r.Thermal.grid in
      let ny = (Dco3d_tensor.Tensor.shape t).(1)
      and nx = (Dco3d_tensor.Tensor.shape t).(2) in
      for tier = 0 to 1 do
        let peak = ref neg_infinity and acc = ref 0. in
        for y = 0 to ny - 1 do
          for x = 0 to nx - 1 do
            let v = Dco3d_tensor.Tensor.get3 t tier y x in
            if v > !peak then peak := v;
            acc := !acc +. v
          done
        done;
        Printf.printf "  tier %d: peak %6.2f C, avg %6.2f C\n" tier !peak
          (!acc /. float_of_int (nx * ny))
      done
    end
    else begin
      (* smoke gate: the thermal penalty must lower peak temperature
         without giving up routability (overflow within 5%).  Start
         from a deliberately hotspotted placement — every cell pulled
         toward the die center — so there is a real peak to burn down;
         the calibrated seed placement is already density-uniform and
         its peak is legalization noise, not a hotspot. *)
      let start = P.Placement.copy base in
      let cx = ctx.Flow.fp.P.Floorplan.width /. 2.
      and cy = ctx.Flow.fp.P.Floorplan.height /. 2. in
      for c = 0 to Nl.n_cells nl - 1 do
        if not (Nl.is_macro nl c) then begin
          start.P.Placement.x.(c) <-
            cx +. (0.35 *. (start.P.Placement.x.(c) -. cx));
          start.P.Placement.y.(c) <-
            cy +. (0.35 *. (start.P.Placement.y.(c) -. cy))
        end
      done;
      (* deliberately NOT legalized: row legalization is a density
         flattener and would erase the hotspot before the penalty sees
         it.  The no-penalty baseline takes the same finishing path as
         the penalty run (legalize, route) minus the descent. *)
      let baseline = P.Placement.copy start in
      P.Placer.legalize baseline;
      let cooled, cool_rep = Dco.cool ~iterations start in
      (* measure at a coarser grid than the optimizer's: with only a
         handful of cells per fine-grid bin, the single hottest node is
         legalization shot noise (one cell more or less is a +-25%
         power swing); quartering the resolution averages ~16 cells
         per bin so the comparison sees the hotspot, not the noise *)
      let coarse = max 4 (gcell / 2) in
      let solve p = Thermal.solve_placement ~nx:coarse ~ny:coarse p in
      let r_base = solve baseline and r_cool = solve cooled in
      let ovf_base = report "no-penalty" baseline r_base in
      let ovf_cool = report "penalty" cooled r_cool in
      let dt = r_base.Thermal.peak_c -. r_cool.Thermal.peak_c in
      Printf.printf
        "peak-temp drop: %.4f C (weighted %.4f C, penalty %.4g -> %.4g)\n%!"
        dt
        (weighted_c baseline r_base -. weighted_c cooled r_cool)
        cool_rep.Dco.loss_start cool_rep.Dco.loss_end;
      if dt <= 0. then begin
        prerr_endline "FAIL: thermal penalty did not reduce peak temperature";
        exit 1
      end;
      if cool_rep.Dco.loss_end >= cool_rep.Dco.loss_start then begin
        prerr_endline "FAIL: alternating minimization did not reduce the penalty";
        exit 1
      end;
      if float_of_int ovf_cool > 1.05 *. Float.max 1. (float_of_int ovf_base)
      then begin
        Printf.eprintf "FAIL: overflow regressed beyond 5%% (%d vs %d)\n"
          ovf_cool ovf_base;
        exit 1
      end;
      (* integration smoke for the full Algorithm-2 coupling: a few
         iterations with epsilon > 0 must run the solver in the loop
         (thermal UNet channel + frozen-field penalty) and come back
         legal.  No temperature assertion here — through the GNN the
         thermal force competes with density and congestion, so on a
         tiny synthetic design its effect is below legalization noise;
         the mechanism itself is gated by the direct descent above. *)
      let predictor = untrained_predictor ~seed ~input_hw:gcell in
      let config =
        { Dco.default_config with Dco.iterations = 4; seed; epsilon }
      in
      let integrated, _ = Dco.optimize ~config ~predictor start in
      (match P.Placer.legal_check integrated with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "FAIL: epsilon-coupled optimize not legal: %s\n" e;
          exit 1);
      print_endline "thermal smoke OK"
    end
  in
  let epsilon_t =
    Arg.(
      value & opt float 0.15
      & info [ "epsilon" ] ~docv:"F"
          ~doc:
            "Thermal-penalty weight for the $(b,--check) Algorithm-2 \
             integration smoke.")
  in
  let iters_t =
    Arg.(
      value & opt int 80
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Alternating-minimization steps for the $(b,--check) gate.")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Smoke gate: spread with and without the thermal penalty and \
             fail unless the penalty lowers peak temperature with overflow \
             within 5%.")
  in
  Cmd.v
    (Cmd.info "thermal"
       ~doc:"Steady-state thermal map of a placement; with $(b,--check), \
             verify the differentiable thermal penalty cools the design.")
    Term.(
      const run $ setup_t $ design_t $ scale_t $ seed_t $ gcell_t $ epsilon_t
      $ iters_t $ check_t)

(* The batching and cache defaults of [serve] and [balance] (which
   passes them on to its shards) are the server's own. *)
let serve_defaults = Server.default_config (Server.Unix_path "")

let serve_cmd =
  let run () socket port model seed input_hw queue_cap max_batch linger_ms
      cache_cap shard_of shard_id spill_dir route_cache_dir corpus_dir =
    let predictor =
      match model with
      | Some path -> load_model path
      | None ->
          (* No trained weights: serve a freshly initialized network.
             Exercises the full daemon (batching, caching, corpus jobs)
             without a training run — what the CI smoke test uses. *)
          untrained_predictor ~seed ~input_hw
    in
    let cfg =
      {
        (Server.default_config (address_of socket port)) with
        Server.queue_capacity = queue_cap;
        max_batch;
        batch_linger_ms = linger_ms;
        cache_capacity = cache_cap;
        spill_dir;
        route_cache_dir;
        corpus_dir;
        shard_id;
      }
    in
    match shard_of with
    | Some ctl_path -> (
        (* Shard mode: no listening socket; the balancer hands over
           connections on the control channel.  The balancer blocks
           TERM/INT/HUP for its own sigwait watcher and the mask
           survives exec — restore default delivery so a shard can
           still be killed directly (the balancer treats that as a
           crash and respawns it).  Shards inherit
           DCO3D_PROFILE from the balancer — re-point it per shard so
           their stage profiles don't clobber each other. *)
        ignore
          (Thread.sigmask Unix.SIG_UNBLOCK
             [ Sys.sigterm; Sys.sigint; Sys.sighup ]);
        (match Sys.getenv_opt "DCO3D_PROFILE" with
        | Some d when d <> "" && d <> "0" && d <> "1" && d <> "true" && d <> "stderr"
          ->
            Obs.set_profile_dest (Printf.sprintf "%s.shard%d" d shard_id)
        | _ -> ());
        Printf.printf "dco3d serve: shard %d attached to %s (model %s)\n%!"
          shard_id ctl_path
          (match model with Some p -> p | None -> "untrained");
        match Shard.run ~ctl_path cfg predictor with
        | Shard.Drained ->
            Printf.printf "dco3d serve: shard %d drained and stopped\n%!"
              shard_id
        | Shard.Balancer_gone ->
            Printf.printf
              "dco3d serve: shard %d balancer gone; drained and stopped\n%!"
              shard_id)
    | None ->
        (* Block the shutdown signals BEFORE the server threads spawn
           (they inherit the mask), then sigwait in a watcher thread.
           A Sys.Signal_handle only runs when some thread executes
           OCaml code, and an idle daemon has every thread parked in C
           (select / join / condition wait) — the handler would never
           fire.  The watcher is a real thread, so request_stop's
           self-pipe poke is delivered immediately. *)
        let stop_sigs = [ Sys.sigterm; Sys.sigint ] in
        ignore (Thread.sigmask Unix.SIG_BLOCK stop_sigs);
        let srv = Server.start cfg predictor in
        ignore
          (Thread.create
             (fun () ->
               let (_ : int) = Thread.wait_signal stop_sigs in
               Server.request_stop srv)
             ());
        Printf.printf "dco3d serve: listening on %s (model %s)\n%!"
          (pp_address (Server.bound_addr srv))
          (match model with Some p -> p | None -> "untrained");
        Server.wait srv;
        print_endline "dco3d serve: drained and stopped";
        List.iter
          (fun (k, v) -> Printf.printf "  %-16s %.0f\n" k v)
          (List.filter (fun (k, _) -> k <> "uptime_s") (Server.stats srv))
  in
  let model_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:"Trained predictor from $(b,dco3d train).  Without it the            daemon serves an untrained network (CI smoke mode).")
  in
  let hw_t =
    Arg.(
      value & opt int 32
      & info [ "input-hw" ] ~docv:"N"
          ~doc:"Network resolution for the untrained fallback model.")
  in
  let queue_t =
    Arg.(
      value
      & opt int serve_defaults.Server.queue_capacity
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Predict-queue high-water mark; beyond it requests are            refused with Overloaded.")
  in
  let batch_t =
    Arg.(
      value
      & opt int serve_defaults.Server.max_batch
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Most requests coalesced into one forward pass.")
  in
  let linger_t =
    Arg.(
      value
      & opt float serve_defaults.Server.batch_linger_ms
      & info [ "linger-ms" ] ~docv:"MS"
          ~doc:
            "How long the batcher waits for companion requests before a \
             batch that is not full (0: take whatever is queued; requests \
             that arrive during a forward pass still ride the next batch).")
  in
  let cache_t =
    Arg.(
      value
      & opt int serve_defaults.Server.cache_capacity
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"LRU result-cache entries (0 disables caching).")
  in
  let shard_of_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard-of" ] ~docv:"CTL"
          ~doc:"Run as a shard of a $(b,dco3d balance) fleet: bind no            socket, register on the control socket $(docv) and serve            connections handed over it via SCM_RIGHTS.  Normally set            by the balancer, not by hand.")
  in
  let shard_id_t =
    Arg.(
      value & opt int 0
      & info [ "shard-id" ] ~docv:"N"
          ~doc:"Slot index reported in hellos and stats (shard mode).")
  in
  let spill_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "spill-dir" ] ~docv:"DIR"
          ~doc:"Persist evicted result-cache entries under $(docv)            (magic+digest framed) and read through them on misses, so            a restarted daemon keeps its hot set.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent inference/flow daemon: load the model \
             once, micro-batch concurrent predict requests, cache \
             results, run corpus jobs asynchronously.  SIGTERM/SIGINT \
             drain and stop.  With $(b,--shard-of) it runs as one shard \
             of a balanced fleet instead.")
    Term.(
      const run $ setup_t $ socket_t $ port_t $ model_t $ seed_t $ hw_t
      $ queue_t $ batch_t $ linger_t $ cache_t $ shard_of_t
      $ shard_id_t $ spill_t $ route_cache_t $ corpus_cache_t)

(* ------------------------------------------------------------------ *)
(* balance                                                              *)
(* ------------------------------------------------------------------ *)

let balance_cmd =
  let run () socket port ctl shards model seed input_hw queue_cap
      max_batch linger_ms cache_cap spill_root route_cache_dir corpus_dir =
    (* Check the model once here: the shards would start and then fail
       every predict, or die on a model file that cannot load. *)
    (match model with
    | Some path -> ignore (load_model path)
    | None -> ignore (untrained_predictor ~seed ~input_hw));
    let addr = address_of socket port in
    let ctl_path =
      match ctl with
      | Some c -> c
      | None -> (
          match addr with
          | Server.Unix_path p -> p ^ ".ctl"
          | Server.Tcp _ -> "dco3d-balance.ctl")
    in
    let argv_of i =
      let base =
        [
          Sys.executable_name;
          "serve";
          "--shard-of";
          ctl_path;
          "--shard-id";
          string_of_int i;
          "--seed";
          string_of_int seed;
          "--input-hw";
          string_of_int input_hw;
          "--queue-capacity";
          string_of_int queue_cap;
          "--max-batch";
          string_of_int max_batch;
          "--linger-ms";
          Printf.sprintf "%g" linger_ms;
          "--cache-capacity";
          string_of_int cache_cap;
          "--jobs";
          string_of_int (Balance.shard_jobs ~n_shards:shards);
        ]
      in
      let with_model =
        match model with Some m -> base @ [ "--model"; m ] | None -> base
      in
      let with_spill =
        match spill_root with
        | Some root ->
            with_model
            @ [ "--spill-dir"; Filename.concat root (Printf.sprintf "shard-%d" i) ]
        | None -> with_model
      in
      (* ONE directory for the whole fleet (unlike the per-shard spill):
         the cache is content-addressed and written atomically, so
         shards share a routed corpus instead of each re-routing it *)
      let with_route_cache =
        match route_cache_dir with
        | Some dir -> with_spill @ [ "--route-cache"; dir ]
        | None -> with_spill
      in
      (* Also fleet-wide: the PPA store is content-addressed, so every
         shard replays from one evaluated corpus *)
      let with_corpus_cache =
        match corpus_dir with
        | Some dir -> with_route_cache @ [ "--corpus-cache"; dir ]
        | None -> with_route_cache
      in
      Array.of_list with_corpus_cache
    in
    let cfg = Balance.default_config ~address:addr ~ctl_path ~n_shards:shards in
    (* Same sigwait-watcher discipline as `dco3d serve`: an idle
       balancer has every thread parked in C, where a Sys.Signal_handle
       never runs.  Block first so the accept/ctl/health threads (and,
       via exec, the shard processes — they unblock on entry) inherit
       the mask, then dispatch from a dedicated thread.  SIGHUP is the
       rolling model swap: re-read the model file shard by shard with
       the rest of the fleet still serving. *)
    let sigs = [ Sys.sigterm; Sys.sigint; Sys.sighup ] in
    ignore (Thread.sigmask Unix.SIG_BLOCK sigs);
    let b = Balance.start cfg ~argv_of in
    ignore
      (Thread.create
         (fun () ->
           let rec watch () =
             let s = Thread.wait_signal sigs in
             if s = Sys.sighup then begin
               ignore
                 (Thread.create
                    (fun () ->
                      print_endline "dco3d balance: rolling restart";
                      if Balance.rolling_restart b then
                        print_endline "dco3d balance: rolling restart done"
                      else
                        prerr_endline "dco3d balance: rolling restart timed out")
                    ());
               watch ()
             end
             else Balance.request_stop b
           in
           watch ())
         ());
    Printf.printf "dco3d balance: listening on %s (%d shards, ctl %s)\n%!"
      (pp_address (Balance.bound_addr b))
      shards ctl_path;
    if Balance.await_live ~timeout_s:120. b shards then
      Printf.printf "dco3d balance: all %d shards live\n%!" shards
    else begin
      prerr_endline "dco3d balance: shards failed to come up";
      Balance.stop b;
      exit 1
    end;
    Balance.wait b;
    print_endline "dco3d balance: drained and stopped";
    List.iter
      (fun s ->
        Printf.printf "  shard %d: %s, %d restarts\n" s.Balance.si_idx
          s.Balance.si_state s.Balance.si_restarts)
      (Balance.slots b)
  in
  let ctl_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "ctl" ] ~docv:"PATH"
          ~doc:"Unix path of the shard control socket (default:            $(b,--socket) path + \".ctl\").")
  in
  let shards_t =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N" ~doc:"Number of shard daemons to run.")
  in
  let model_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:"Predictor file every shard serves.  Without it shards            serve the seeded untrained network.")
  in
  let hw_t =
    Arg.(
      value & opt int 32
      & info [ "input-hw" ] ~docv:"N"
          ~doc:"Network resolution for the untrained fallback model.")
  in
  let queue_t =
    Arg.(
      value
      & opt int serve_defaults.Server.queue_capacity
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Per-shard predict-queue high-water mark.")
  in
  let batch_t =
    Arg.(
      value
      & opt int serve_defaults.Server.max_batch
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Per-shard micro-batch size cap.")
  in
  let linger_t =
    Arg.(
      value
      & opt float serve_defaults.Server.batch_linger_ms
      & info [ "linger-ms" ] ~docv:"MS"
          ~doc:"Per-shard batcher linger.")
  in
  let cache_t =
    Arg.(
      value
      & opt int serve_defaults.Server.cache_capacity
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Per-shard LRU result-cache entries.")
  in
  let spill_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "spill-dir" ] ~docv:"DIR"
          ~doc:"Root directory for per-shard LRU spill ($(docv)/shard-N);            restarted shards warm up from it.")
  in
  Cmd.v
    (Cmd.info "balance"
       ~doc:"Run the fd-passing balancer: spawn and supervise N shard \
             daemons, route each incoming connection by model \
             fingerprint, and hand the accepted socket to its shard \
             over SCM_RIGHTS (no frame proxying).  Crashed shards are \
             restarted; SIGHUP performs a rolling, zero-downtime \
             restart; SIGTERM/SIGINT drain the fleet and stop.")
    Term.(
      const run $ setup_t $ socket_t $ port_t $ ctl_t $ shards_t
      $ model_t $ seed_t $ hw_t $ queue_t $ batch_t $ linger_t $ cache_t
      $ spill_t $ route_cache_t $ corpus_cache_t)

let client_cmd =
  let talk c action design scale seed gcell repeat timeout_ms route retries =
    (match route with
    | None -> ()
    | Some r ->
        let want =
          match r with
          | "any" -> Proto.Want_any
          | fp -> Proto.Want_fingerprint fp
        in
        let fp, shard, _ = Client.hello ~want c in
        Printf.printf "hello: shard %d (fingerprint %s)\n" shard fp);
    match action with
    | `Ping ->
        let t0 = Unix.gettimeofday () in
        Client.ping c;
        Printf.printf "pong (%.2f ms)\n" ((Unix.gettimeofday () -. t0) *. 1000.)
    | `Stats ->
        List.iter
          (fun (k, v) -> Printf.printf "%-16s %g\n" k v)
          (Client.stats c)
    | `Predict ->
        let nl = netlist_of design scale seed in
        let fp = P.Floorplan.create ~gcell_nx:gcell ~gcell_ny:gcell nl in
        let p = P.Placer.global_place ~seed ~params:P.Params.default nl fp in
        let f_bottom, f_top = Fm.both_dies p ~nx:gcell ~ny:gcell in
        for i = 1 to repeat do
          let t0 = Unix.gettimeofday () in
          let outcome =
            if retries > 0 then
              Client.retry ~attempts:retries ~seed:(seed + i) ?timeout_ms c
                f_bottom f_top
            else Client.predict ?timeout_ms c f_bottom f_top
          in
          match outcome with
          | Client.Ok { c_bottom; c_top; cache_hit } ->
              let sum t = Array.fold_left ( +. ) 0. t.Dco3d_tensor.Tensor.data in
              Printf.printf
                "predict %d/%d: %.2f ms, cache %s, sum(bottom) %.4f, \
                 sum(top) %.4f\n"
                i repeat
                ((Unix.gettimeofday () -. t0) *. 1000.)
                (if cache_hit then "hit" else "miss")
                (sum c_bottom) (sum c_top)
          | Client.Overloaded { queue_len; capacity } ->
              Printf.printf "predict %d/%d: overloaded (%d/%d queued)\n" i
                repeat queue_len capacity
          | Client.Timed_out ->
              Printf.printf "predict %d/%d: timed out\n" i repeat
          | Client.Disconnected ->
              Printf.printf "predict %d/%d: disconnected\n" i repeat
        done
    | `Flow ->
        (* A remote Pin-3D flow is the "base" corpus cell of a spec named
           after its profile.  The generator seeds its RNG from the
           profile name, so the spec carries the resolved name: "-d dma"
           generates the netlist of "DMA". *)
        let name =
          match Gen.profile design with
          | p -> p.Gen.name
          | exception Not_found ->
              Printf.eprintf "dco3d client: unknown design %S\n" design;
              exit 2
        in
        let req =
          {
            Proto.cr_spec = Corpus.spec ~name ~scale ~seed name;
            cr_config = Corpus.flow_config ~gcell "base";
            cr_kind = Proto.Corpus_ppa;
          }
        in
        let id = Client.submit_corpus c req in
        Printf.printf "job %d accepted, polling...\n%!" id;
        match Client.wait_corpus c id with
        | Proto.Corpus_row r ->
            Printf.printf
              "%s/%s: overflow %d, WL %.1f um, WNS %.1f ps, TNS %.1f ps, \
               power %.2f mW\n"
              r.Corpus.r_design r.Corpus.r_config r.Corpus.r_overflow
              r.Corpus.r_wirelength_um r.Corpus.r_wns_ps r.Corpus.r_tns_ps
              r.Corpus.r_power_mw
        | Proto.Corpus_dataset_built _ ->
            raise (Client.Error "client flow: unexpected dataset reply")
  in
  (* A refused request, a lost daemon or a wire-version mismatch is one
     line on stderr and exit 1. *)
  let run () socket port action design scale seed gcell repeat timeout_ms
      route retries =
    let addr = address_of socket port in
    let fail msg =
      prerr_endline ("dco3d client: " ^ msg);
      exit 1
    in
    try
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      talk c action design scale seed gcell repeat timeout_ms route retries
    with
    | Client.Error msg -> fail msg
    | Client.Lost_connection -> fail "the daemon closed the connection"
    | Unix.Unix_error (e, _, _) ->
        fail (pp_address addr ^ ": " ^ Unix.error_message e)
  in
  let action_t =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("ping", `Ping);
                  ("stats", `Stats);
                  ("predict", `Predict);
                  ("flow", `Flow);
                ]))
          None
      & info [] ~docv:"ACTION"
          ~doc:"$(b,ping), $(b,stats), $(b,predict) (build features for            --design locally, request congestion maps) or $(b,flow)            (run the Pin-3D flow on --design as a corpus PPA job and poll it).")
  in
  let repeat_t =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Send the predict request $(docv) times (the repeats hit            the daemon's result cache).")
  in
  let timeout_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let route_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "route" ] ~docv:"WANT"
          ~doc:"Send a $(b,Hello) first to pin the route through a            $(b,dco3d balance) front: $(b,any) or a model            fingerprint.")
  in
  let retry_t =
    Arg.(
      value & opt int 0
      & info [ "retry" ] ~docv:"N"
          ~doc:"Retry predicts up to $(docv) times with jittered backoff            on Overloaded/Timed_out/disconnect (0 = no retry).  Rides            through a shard crash behind a balancer.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running $(b,dco3d serve) daemon or $(b,dco3d \
             balance) fleet.")
    Term.(
      const run $ setup_t $ socket_t $ port_t $ action_t $ design_t $ scale_t
      $ seed_t $ gcell_t $ repeat_t $ timeout_t $ route_t $ retry_t)

(* ------------------------------------------------------------------ *)
(* corpus                                                               *)
(* ------------------------------------------------------------------ *)

let corpus_cmd =
  let run () socket port matrix dataset designs_arg configs_arg scale seed
      gcell util json route_cache_dir corpus_dir =
    let specs =
      let names =
        match designs_arg with
        | [] -> List.map (fun s -> s.Corpus.sp_name) Corpus.designs
        | l -> l
      in
      List.map
        (fun n ->
          match Corpus.find n with
          | s -> Corpus.reseeded seed (Corpus.scaled scale s)
          | exception Not_found ->
              Printf.eprintf
                "dco3d corpus: unknown corpus point %S (run without            --matrix to list them)\n"
                n;
              exit 2)
        names
    in
    let configs =
      let names =
        match configs_arg with
        | [] -> List.map (fun c -> c.Corpus.fc_name) Corpus.default_configs
        | l -> l
      in
      List.map
        (fun n ->
          let n = String.lowercase_ascii (String.trim n) in
          match
            List.find_opt
              (fun c -> c.Corpus.fc_name = n)
              Corpus.default_configs
          with
          | Some c -> { c with Corpus.fc_gcell = gcell; fc_util = util }
          | None ->
              Printf.eprintf
                "dco3d corpus: unknown flow config %S (want %s)\n" n
                (String.concat "|"
                   (List.map
                      (fun c -> c.Corpus.fc_name)
                      Corpus.default_configs));
              exit 2)
        names
    in
    let remote = socket <> None || port <> None in
    match (matrix, dataset) with
    | false, None ->
        (* No action: list the corpus points (cheap — no generation). *)
        List.iter
          (fun s ->
            let ov =
              String.concat ""
                [
                  (match s.Corpus.sp_seq_fraction with
                  | Some f -> Printf.sprintf "  ff %.2f" f
                  | None -> "");
                  (match s.Corpus.sp_depth with
                  | Some d -> Printf.sprintf "  depth %d" d
                  | None -> "");
                  (match s.Corpus.sp_hub_fraction with
                  | Some f -> Printf.sprintf "  hubs %.3f" f
                  | None -> "");
                  (match s.Corpus.sp_locality with
                  | Some f -> Printf.sprintf "  locality %.2f" f
                  | None -> "");
                  (match s.Corpus.sp_macros with
                  | Some m -> Printf.sprintf "  macros %d" m
                  | None -> "");
                ]
            in
            Printf.printf "%-14s base %-7s scale %-5.2f seed %d%s\n"
              s.Corpus.sp_name s.Corpus.sp_base s.Corpus.sp_scale
              s.Corpus.sp_seed ov)
          specs;
        Printf.printf
          "(%d corpus points; run the PPA matrix with --matrix)\n"
          (List.length specs)
    | true, Some _ ->
        prerr_endline "dco3d corpus: --matrix and --dataset are exclusive";
        exit 2
    | false, Some n_samples ->
        (* Corpus dataset builds — the serving tier's other corpus
           request kind.  One config (the first selected) per design. *)
        let fc = List.hd configs in
        List.iter
          (fun s ->
            let design, samples, digest =
              if remote then begin
                let c = Client.connect (address_of socket port) in
                Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
                let id =
                  Client.submit_corpus c
                    {
                      Proto.cr_spec = s;
                      cr_config = fc;
                      cr_kind = Proto.Corpus_dataset n_samples;
                    }
                in
                match Client.wait_corpus c id with
                | Proto.Corpus_dataset_built { cd_design; cd_samples; cd_digest }
                  ->
                    (cd_design, cd_samples, cd_digest)
                | Proto.Corpus_row _ ->
                    raise (Client.Error "corpus: unexpected PPA-row reply")
              end
              else
                let route_cache = route_cache_of route_cache_dir in
                let d = Corpus.build_dataset ~n_samples ?route_cache s fc in
                (s.Corpus.sp_name, n_samples, Dataset.digest d)
            in
            Printf.printf "dataset %-14s %3d samples  digest %s\n" design
              samples digest)
          specs
    | true, None ->
        let rows =
          if remote then begin
            (* One connection per design: a balancer routes a connection
               by its first request, so per-design connections spread the
               matrix across shards via the corpus design affinity while
               keeping all of one design's cells on one shard. *)
            let addr = address_of socket port in
            let conns =
              List.map
                (fun s ->
                  let c = Client.connect addr in
                  let ids =
                    List.map
                      (fun fc ->
                        Client.submit_corpus c
                          {
                            Proto.cr_spec = s;
                            cr_config = fc;
                            cr_kind = Proto.Corpus_ppa;
                          })
                      configs
                  in
                  (c, ids))
                specs
            in
            Fun.protect
              ~finally:(fun () ->
                List.iter (fun (c, _) -> Client.close c) conns)
            @@ fun () ->
            List.concat_map
              (fun (c, ids) ->
                List.map
                  (fun id ->
                    match Client.wait_corpus c id with
                    | Proto.Corpus_row r -> r
                    | Proto.Corpus_dataset_built _ ->
                        raise
                          (Client.Error "corpus: unexpected dataset reply"))
                  ids)
              conns
          end
          else
            let store = Option.map Corpus.open_store corpus_dir in
            let route_cache = route_cache_of route_cache_dir in
            Corpus.run_matrix ?store ?route_cache ~specs ~configs ()
        in
        Corpus.pp_matrix Format.std_formatter rows;
        Format.pp_print_flush Format.std_formatter ();
        let digest =
          Digest.to_hex
            (Digest.string
               (String.concat "," (List.map Corpus.row_digest rows)))
        in
        Printf.printf "corpus matrix: %d rows, digest %s\n"
          (List.length rows) digest;
        Option.iter
          (fun path ->
            Corpus.write_json path rows;
            Printf.printf "matrix written to %s\n" path)
          json
  in
  let matrix_t =
    Arg.(
      value & flag
      & info [ "matrix" ]
          ~doc:
            "Run the PPA matrix (designs x flow configs): the full flow            per cell, a rendered table, a matrix digest over the            per-row determinism digests, and optionally $(b,--json).")
  in
  let dataset_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "dataset" ] ~docv:"N"
          ~doc:
            "Instead of the PPA matrix, build an N-sample congestion            dataset per selected design (first selected config) and            print its content digest.")
  in
  let designs_t =
    Arg.(
      value
      & opt (list string) []
      & info [ "designs" ] ~docv:"LIST"
          ~doc:
            "Comma-separated corpus points to run (default: the whole            corpus; run without $(b,--matrix) to list them).")
  in
  let configs_t =
    Arg.(
      value
      & opt (list string) []
      & info [ "configs" ] ~docv:"LIST"
          ~doc:"Comma-separated flow configs (default: $(b,base,cong)).")
  in
  let corpus_scale_t =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F"
          ~doc:
            "Multiplier on each corpus point's native scale (smoke runs            use small values like 0.03).")
  in
  let util_t =
    Arg.(
      value & opt float 0.55
      & info [ "util" ] ~docv:"F" ~doc:"Floorplan target utilization.")
  in
  let json_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the matrix as one JSON row-object per line.")
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "The generated multi-design PPA benchmark corpus: list its \
          design points, run the (design x flow-config) PPA matrix \
          locally or through a $(b,dco3d serve)/$(b,balance) fleet \
          ($(b,--socket)/$(b,--port)), or build per-design congestion \
          datasets.  Served runs are deduped in-flight and cached \
          on disk, so a fleet evaluates each cell once.")
    Term.(
      const run $ setup_t $ socket_t $ port_t $ matrix_t $ dataset_t
      $ designs_t $ configs_t $ corpus_scale_t $ seed_t $ gcell_t $ util_t
      $ json_t $ route_cache_t $ corpus_cache_t)

let main =
  Cmd.group
    (Cmd.info "dco3d" ~version:"1.0.0"
       ~doc:"Differentiable congestion optimization for 3D ICs (DAC'25 \
             reproduction).")
    [
      gen_cmd;
      place_cmd;
      route_cmd;
      timing_cmd;
      flow_cmd;
      train_cmd;
      optimize_cmd;
      thermal_cmd;
      corpus_cmd;
      serve_cmd;
      balance_cmd;
      client_cmd;
    ]

let () = exit (Cmd.eval main)
