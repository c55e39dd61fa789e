module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module V = Dco3d_autodiff.Value
module Opt = Dco3d_autodiff.Optimizer
module Nl = Dco3d_netlist.Netlist
module Pl = Dco3d_place.Placement
module Fp = Dco3d_place.Floorplan
module Placer = Dco3d_place.Placer
module Csr = Dco3d_graph.Csr
module SiaUNet = Dco3d_nn.Siamese_unet
module Fm = Dco3d_congestion.Feature_maps
module Thermal = Dco3d_thermal.Thermal
module Obs = Dco3d_obs.Obs

let log_src = Logs.Src.create "dco3d.dco" ~doc:"Algorithm 2 optimization"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  iterations : int;
  lr : float;
  hidden : int;
  max_move_gcells : float;
  alpha : float;
  beta : float;
  gamma : float;
  delta : float;
  density_target : float;
  seed : int;
  freeze_z : bool;
  (** ablation: disable cross-tier (z) movement, reducing DCO-3D to a
      2D spreader — isolates the paper's contribution #2 *)
  epsilon : float;
  (** weight of the thermal penalty (0 = thermally blind, the paper's
      baseline).  When positive, each iteration re-solves the
      steady-state field from the current soft positions and adds
      [epsilon * Losses.thermal] so hot cells repel across tiers. *)
}

let default_config =
  {
    iterations = 60;
    lr = 6e-3;
    hidden = 32;
    max_move_gcells = 1.5;
    alpha = 1.0;
    beta = 30.;
    gamma = 1.5;
    delta = 8.;
    density_target = 0.85;
    seed = 11;
    freeze_z = false;
    epsilon = 0.;
  }

type iter_stats = {
  total : float;
  disp : float;
  ovlp : float;
  cut : float;
  cong : float;
}

type report = {
  stats : iter_stats array;
  predicted_cong_start : float;
  predicted_cong_end : float;
  cut_start : int;
  cut_end : int;
  mean_displacement : float;
  tier_moves : int;
}

let resize_value v h w =
  let d = V.data v in
  if T.rank d <> 3 then invalid_arg "Dco.resize_value: rank-3 expected";
  let c = T.dim d 0 and hi = T.dim d 1 and wi = T.dim d 2 in
  let out =
    T.concat_channels
      (List.init c (fun ch -> T.resize_nearest (T.channel d ch) h w))
  in
  V.custom ~data:out ~parents:[ v ]
    ~backward:(fun g ->
      let gin = T.zeros [| c; hi; wi |] in
      for ch = 0 to c - 1 do
        for oy = 0 to h - 1 do
          let iy = min (hi - 1) (oy * hi / h) in
          for ox = 0 to w - 1 do
            let ix = min (wi - 1) (ox * wi / w) in
            T.set3 gin ch iy ix (T.get3 gin ch iy ix +. T.get3 g ch oy ox)
          done
        done
      done;
      [ Some gin ])

let normalize_features v =
  let d = V.data v in
  let c = T.dim d 0 and h = T.dim d 1 and w = T.dim d 2 in
  if c <> Fm.n_channels then
    invalid_arg "Dco.normalize_features: expected 8 channels";
  let scales =
    T.init [| c; h; w |] (fun idx -> 1. /. Fm.default_scales.(idx.(0)))
  in
  V.mul (V.const scales) v

(* Bin per-cell power at *soft* positions: movable cells split between
   the dies by their tier probability [zs], macros stay on their fixed
   tier.  Shared by the full Algorithm-2 loop and by {!cool}. *)
let soft_power_grid (p : Pl.t) ~cell_mw ~xs ~ys ~zs ~nx ~ny =
  let nl = p.Pl.nl in
  let die_w = p.Pl.fp.Fp.width and die_h = p.Pl.fp.Fp.height in
  let power_grid = T.zeros [| 2; ny; nx |] in
  let add tier gy gx v =
    T.set3 power_grid tier gy gx (T.get3 power_grid tier gy gx +. v)
  in
  let n = Nl.n_cells nl in
  for c = 0 to n - 1 do
    let px = Float.max 0. (Float.min (die_w -. 1e-9) (T.get_flat xs c)) in
    let py = Float.max 0. (Float.min (die_h -. 1e-9) (T.get_flat ys c)) in
    let gx = min (nx - 1) (int_of_float (px /. die_w *. float_of_int nx)) in
    let gy = min (ny - 1) (int_of_float (py /. die_h *. float_of_int ny)) in
    if Nl.is_macro nl c then add p.Pl.tier.(c) gy gx cell_mw.(c)
    else begin
      let zc = T.get_flat zs c in
      add 0 gy gx (cell_mw.(c) *. (1. -. zc));
      add 1 gy gx (cell_mw.(c) *. zc)
    end
  done;
  power_grid

let c_iters = Obs.counter "dco/iterations"
let h_total = Obs.histogram "dco/loss_total"
let h_disp = Obs.histogram "dco/loss_disp"
let h_ovlp = Obs.histogram "dco/loss_ovlp"
let h_cut = Obs.histogram "dco/loss_cut"
let h_cong = Obs.histogram "dco/loss_cong"

let optimize ?(config = default_config) ~predictor (p_in : Pl.t) =
  Obs.with_span "dco" @@ fun () ->
  let p = Pl.copy p_in in
  let nl = p.Pl.nl in
  let fp = p.Pl.fp in
  let nx = fp.Fp.gcell_nx and ny = fp.Fp.gcell_ny in
  let rng = Rng.create (config.seed lxor 0xdc0) in
  (* graph and features *)
  let raw_adj = Spreader.graph_of_netlist nl in
  let norm_adj = Csr.symmetric_normalize raw_adj in
  let features = Spreader.node_features p in
  let max_move = config.max_move_gcells *. Fp.gcell_w fp in
  let spreader =
    Spreader.create rng ~adj:norm_adj ~n_features:(T.dim features 1)
      ~hidden:config.hidden ~max_move ~placement:p ()
  in
  let opt = Opt.adam ~lr:config.lr (Spreader.params spreader) in
  let x0 = T.of_array1 p.Pl.x and y0 = T.of_array1 p.Pl.y in
  let input_hw = predictor.Predictor.input_hw in
  let net = predictor.Predictor.net in
  let z_const =
    lazy
      (V.const
         (T.init [| Nl.n_cells nl |] (fun i -> float_of_int p.Pl.tier.(i.(0)))))
  in
  (* Thermal coupling: per-cell power attribution is frozen at the
     incoming placement (power barely depends on the spreading-scale
     moves), the field is re-solved from the current soft positions
     every iteration and enters both as the UNet's thermal channel and
     as the frozen-field penalty. *)
  let cell_mw =
    lazy (Thermal.cell_power p ~power:(Thermal.placement_power p))
  in
  let solve_soft_thermal ~x ~y ~z =
    let mw = Lazy.force cell_mw in
    let power_grid =
      soft_power_grid p ~cell_mw:mw ~xs:(V.data x) ~ys:(V.data y)
        ~zs:(V.data z) ~nx ~ny
    in
    let r = Thermal.solve ~power_grid () in
    let ambient = Thermal.default_config.Thermal.ambient_c in
    T.map (fun t -> Float.max 0. (t -. ambient)) r.Thermal.grid
  in
  (* Each stage of an iteration runs in its own span (gcn, soft_maps,
     unet, losses, then grad for the step), so a trace shows where an
     iteration's time goes. *)
  let forward_losses () =
    let x, y, z =
      Obs.with_span "gcn" @@ fun () ->
      let x, y, z = Spreader.forward spreader ~features in
      (x, y, if config.freeze_z then Lazy.force z_const else z)
    in
    let rise =
      if config.epsilon > 0. then Some (solve_soft_thermal ~x ~y ~z)
      else None
    in
    let f0, f1 =
      Obs.with_span "soft_maps" @@ fun () ->
      Soft_maps.build ?thermal:rise ~placement:p ~x ~y ~z ~nx ~ny ()
    in
    let c0, c1 =
      Obs.with_span "unet" @@ fun () ->
      let prep f = resize_value (normalize_features f) input_hw input_hw in
      SiaUNet.forward net (prep f0) (prep f1)
    in
    Obs.with_span "losses" @@ fun () ->
    let l_cong = Losses.congestion c0 c1 in
    let l_cut = Losses.cutsize ~adj:raw_adj z in
    let l_ovlp = Losses.overlap ~target:config.density_target f0 f1 in
    let l_disp = Losses.displacement ~x ~y ~x0 ~y0 in
    let l_therm =
      match rise with
      | Some grid ->
          Losses.thermal ~grid ~cell_mw:(Lazy.force cell_mw) ~placement:p
            ~nx ~ny ~x ~y ~z
      | None -> V.scalar 0.
    in
    let total =
      V.add_list
        [
          V.scale config.alpha l_disp;
          V.scale config.beta l_ovlp;
          V.scale config.gamma l_cut;
          V.scale config.delta l_cong;
          V.scale config.epsilon l_therm;
        ]
    in
    (x, y, z, total, l_disp, l_ovlp, l_cut, l_cong)
  in
  let stats = Array.make config.iterations
      { total = 0.; disp = 0.; ovlp = 0.; cut = 0.; cong = 0. }
  in
  let sc v = T.get_flat (V.data v) 0 in
  let cong_start = ref 0. and cong_end = ref 0. in
  (* Trust region: the congestion term comes from a learned proxy, and
     chasing it far below its starting value only means the GNN has
     drifted outside the predictor's training distribution.  Stop once
     the predicted congestion has dropped by 25 %. *)
  let trust_floor = ref infinity in
  let it = ref 0 in
  let stop = ref false in
  while (not !stop) && !it < config.iterations do
    Obs.with_span (Printf.sprintf "iter:%d" !it) @@ fun () ->
    let _, _, _, total, l_disp, l_ovlp, l_cut, l_cong = forward_losses () in
    if !it = 0 then begin
      cong_start := sc l_cong;
      trust_floor := 0.75 *. sc l_cong
    end;
    cong_end := sc l_cong;
    stats.(!it) <-
      { total = sc total; disp = sc l_disp; ovlp = sc l_ovlp;
        cut = sc l_cut; cong = sc l_cong };
    Obs.incr c_iters;
    if Obs.enabled () then begin
      Obs.observe h_total stats.(!it).total;
      Obs.observe h_disp stats.(!it).disp;
      Obs.observe h_ovlp stats.(!it).ovlp;
      Obs.observe h_cut stats.(!it).cut;
      Obs.observe h_cong stats.(!it).cong
    end;
    if sc l_cong < !trust_floor then stop := true
    else begin
      (* only the GCN spreader is trained: the predictor stays frozen,
         so no gradient is computed for (or written into) its weights *)
      Obs.with_span "grad" @@ fun () ->
      V.backward ~wrt:(Opt.params opt) total;
      Opt.step opt
    end;
    if (!it + 1) mod 10 = 0 then
      Log.info (fun m ->
          m "iter %d/%d: total %.4f (disp %.4f ovlp %.5f cut %.4f cong %.4f)"
            (!it + 1) config.iterations stats.(!it).total stats.(!it).disp
            stats.(!it).ovlp stats.(!it).cut stats.(!it).cong);
    incr it
  done;
  let stats = Array.sub stats 0 (max 1 !it) in
  (* final hard placement *)
  let x, y, z, _, _, _, _, l_cong = forward_losses () in
  cong_end := sc l_cong;
  let cut_start = Pl.cut_size p_in in
  let tiers =
    if config.freeze_z then Array.copy p_in.Pl.tier
    else Soft_maps.hard_assignment (V.data z)
  in
  let n = Nl.n_cells nl in
  let tier_moves = ref 0 in
  for c = 0 to n - 1 do
    if not (Nl.is_macro nl c) then begin
      p.Pl.x.(c) <- T.get_flat (V.data x) c;
      p.Pl.y.(c) <- T.get_flat (V.data y) c;
      if tiers.(c) <> p.Pl.tier.(c) then incr tier_moves;
      p.Pl.tier.(c) <- tiers.(c)
    end
  done;
  Pl.clamp_to_die p;
  Placer.legalize p;
  (* Fall-back guard: when the optimizer failed to reduce even its own
     predicted congestion, the move set is noise — keep the incoming
     placement (the TCL export is then empty, a no-op for the flow). *)
  (* (Skipped for thermal runs: there the optimizer trades predicted
     congestion against temperature, so a flat congestion trace does
     not mean the move set is noise.) *)
  let p =
    if config.epsilon = 0. && !cong_end >= 0.995 *. !cong_start then begin
      Log.info (fun m ->
          m "DCO made no predicted progress (%.4f -> %.4f): keeping input"
            !cong_start !cong_end);
      Pl.copy p_in
    end
    else p
  in
  let report =
    {
      stats;
      predicted_cong_start = !cong_start;
      predicted_cong_end = !cong_end;
      cut_start;
      cut_end = Pl.cut_size p;
      mean_displacement = Pl.displacement_from p p_in;
      tier_moves = !tier_moves;
    }
  in
  Log.info (fun m ->
      m "DCO done: pred cong %.4f -> %.4f, cut %d -> %d, %d tier moves, mean disp %.3f um"
        report.predicted_cong_start report.predicted_cong_end report.cut_start
        report.cut_end report.tier_moves report.mean_displacement);
  (p, report)

(* ------------------------------------------------------------------ *)
(* Thermal spreading: alternating minimization on the penalty alone   *)
(* ------------------------------------------------------------------ *)

type cool_report = { loss_start : float; loss_end : float; solves : int }

let cool ?(iterations = 80) ?(step_gcells = 0.5) ?(step_z = 0.1)
    (p_in : Pl.t) =
  Obs.with_span "dco_cool" @@ fun () ->
  let p = Pl.copy p_in in
  let nl = p.Pl.nl in
  let fp = p.Pl.fp in
  let nx = fp.Fp.gcell_nx and ny = fp.Fp.gcell_ny in
  let n = Nl.n_cells nl in
  (* power attribution frozen at the incoming placement, exactly as in
     the full Algorithm-2 loop *)
  let cell_mw = Thermal.cell_power p ~power:(Thermal.placement_power p) in
  let xs = T.of_array1 p.Pl.x in
  let ys = T.of_array1 p.Pl.y in
  let zs = T.init [| n |] (fun i -> float_of_int p.Pl.tier.(i.(0))) in
  let step_um = step_gcells *. Fp.gcell_w fp in
  let ambient = Thermal.default_config.Thermal.ambient_c in
  let die_w = fp.Fp.width and die_h = fp.Fp.height in
  let loss_start = ref nan and loss_end = ref nan in
  for it = 0 to iterations - 1 do
    (* (a) re-solve the frozen field from the current soft positions *)
    let power_grid = soft_power_grid p ~cell_mw ~xs ~ys ~zs ~nx ~ny in
    let r = Thermal.solve ~power_grid () in
    let rise = T.map (fun t -> Float.max 0. (t -. ambient)) r.Thermal.grid in
    (* (b) one descent step on the penalty with the field held fixed *)
    let x = V.param xs and y = V.param ys and z = V.param zs in
    let l = Losses.thermal ~grid:rise ~cell_mw ~placement:p ~nx ~ny ~x ~y ~z in
    let lv = T.get_flat (V.data l) 0 in
    if it = 0 then loss_start := lv;
    loss_end := lv;
    V.backward l;
    let gx = V.grad x and gy = V.grad y and gz = V.grad z in
    (* normalize by the largest gradient component so the most-pushed
       cell moves exactly [step_gcells] per iteration (and at most
       [step_z] in z) — scale-free in design size and absolute power *)
    let gmax = ref 0. and gzmax = ref 0. in
    for c = 0 to n - 1 do
      gmax :=
        Float.max !gmax
          (Float.max (Float.abs (T.get_flat gx c))
             (Float.abs (T.get_flat gy c)));
      gzmax := Float.max !gzmax (Float.abs (T.get_flat gz c))
    done;
    if !gmax > 0. then begin
      let s = step_um /. !gmax in
      for c = 0 to n - 1 do
        if not (Nl.is_macro nl c) then begin
          T.set_flat xs c
            (Float.max 0.
               (Float.min die_w (T.get_flat xs c -. (s *. T.get_flat gx c))));
          T.set_flat ys c
            (Float.max 0.
               (Float.min die_h (T.get_flat ys c -. (s *. T.get_flat gy c))))
        end
      done
    end;
    if !gzmax > 0. then begin
      let s = step_z /. !gzmax in
      for c = 0 to n - 1 do
        if not (Nl.is_macro nl c) then
          T.set_flat zs c
            (Float.max 0.
               (Float.min 1. (T.get_flat zs c -. (s *. T.get_flat gz c))))
      done
    end
  done;
  let tiers = Soft_maps.hard_assignment zs in
  for c = 0 to n - 1 do
    if not (Nl.is_macro nl c) then begin
      p.Pl.x.(c) <- T.get_flat xs c;
      p.Pl.y.(c) <- T.get_flat ys c;
      p.Pl.tier.(c) <- tiers.(c)
    end
  done;
  Pl.clamp_to_die p;
  Placer.legalize p;
  (p, { loss_start = !loss_start; loss_end = !loss_end; solves = iterations })
