module T = Dco3d_tensor.Tensor
module Linalg = Dco3d_tensor.Linalg
module Pool = Dco3d_parallel.Pool
module Obs = Dco3d_obs.Obs
module Nl = Dco3d_netlist.Netlist
module Cl = Dco3d_netlist.Cell_lib
module Pl = Dco3d_place.Placement
module Sta = Dco3d_sta.Sta

type config = {
  k_lateral : float;
  k_vertical : float;
  h_sink : float;
  ambient_c : float;
  max_iter : int;
  tol : float;
}

(* The sink is the dominant escape path (as in any real package: almost
   all heat leaves through the heat sink, not sideways through the die
   edge).  h_sink >= k_lateral keeps the lateral diffusion length around
   one GCell, so hotspots stay localized and placement can actually move
   them; a weak sink would flatten the field until the two tiers are
   near-isothermal and the thermal penalty has nothing to push on. *)
let default_config =
  {
    k_lateral = 0.02;
    k_vertical = 0.08;
    h_sink = 0.05;
    ambient_c = 25.;
    max_iter = 600;
    tol = 1e-7;
  }

type result = {
  grid : T.t;
  peak_c : float;
  avg_c : float;
  cg_iters : int;
  cg_status : Linalg.cg_status;
}

let c_solves = Obs.counter "thermal/solves"
let c_cg_iters = Obs.counter "thermal/cg_iters"
let c_breakdowns = Obs.counter "thermal/cg_breakdowns"

(* ------------------------------------------------------------------ *)
(* Power binning                                                       *)
(* ------------------------------------------------------------------ *)

let bin_of extent n coord =
  let b = int_of_float (coord /. extent *. float_of_int n) in
  if b < 0 then 0 else if b > n - 1 then n - 1 else b

let cell_power (p : Pl.t) ~(power : Sta.power) =
  let nl = p.Pl.nl in
  let n = Nl.n_cells nl in
  (* per-cell power: internal + leakage + switching of the nets the
     cell is responsible for *)
  let cell_mw = Array.make n 0. in
  for c = 0 to n - 1 do
    cell_mw.(c) <-
      power.Sta.cell_internal_mw.(c)
      +. (nl.Nl.masters.(c).Cl.leakage /. 1e6)
  done;
  Array.iter
    (fun (net : Nl.net) ->
      if not net.Nl.is_clock then
        let mw = power.Sta.net_switch_mw.(net.Nl.net_id) in
        if mw > 0. then
          match net.Nl.driver with
          | Nl.Cell c -> cell_mw.(c) <- cell_mw.(c) +. mw
          | Nl.Io _ ->
              (* a pad drives it: charge the on-die receivers evenly so
                 no power is dropped from the map *)
              let cells =
                Array.fold_left
                  (fun acc ep ->
                    match ep with Nl.Cell _ -> acc + 1 | Nl.Io _ -> acc)
                  0 net.Nl.sinks
              in
              if cells > 0 then begin
                let share = mw /. float_of_int cells in
                Array.iter
                  (function
                    | Nl.Cell c -> cell_mw.(c) <- cell_mw.(c) +. share
                    | Nl.Io _ -> ())
                  net.Nl.sinks
              end)
    nl.Nl.nets;
  (* clock-tree power: CTS reports wire + buffer totals without
     geometry, so smear it over the tree's sinks — an equal share per
     flip-flop (the buffers sit at sink centroids, so this tracks the
     wiring closely enough for a thermal map).  A design with no
     flip-flops keeps the clock power out of the per-cell vector; the
     binning below spreads it uniformly instead. *)
  let n_ff =
    Array.fold_left
      (fun a (m : Cl.master) -> if m.Cl.is_seq then a + 1 else a)
      0 nl.Nl.masters
  in
  if power.Sta.clock_mw > 0. && n_ff > 0 then begin
    let per_ff = power.Sta.clock_mw /. float_of_int n_ff in
    for c = 0 to n - 1 do
      if nl.Nl.masters.(c).Cl.is_seq then
        cell_mw.(c) <- cell_mw.(c) +. per_ff
    done
  end;
  cell_mw

let power_density (p : Pl.t) ~(power : Sta.power) ~nx ~ny =
  let nl = p.Pl.nl in
  let n = Nl.n_cells nl in
  let w = p.Pl.fp.Dco3d_place.Floorplan.width in
  let h = p.Pl.fp.Dco3d_place.Floorplan.height in
  let cell_mw = cell_power p ~power in
  let grid = T.zeros [| 2; ny; nx |] in
  let add tier y x mw = T.set3 grid tier y x (T.get3 grid tier y x +. mw) in
  for c = 0 to n - 1 do
    let bx = bin_of w nx p.Pl.x.(c) in
    let by = bin_of h ny p.Pl.y.(c) in
    add p.Pl.tier.(c) by bx cell_mw.(c)
  done;
  let n_ff =
    Array.fold_left
      (fun a (m : Cl.master) -> if m.Cl.is_seq then a + 1 else a)
      0 nl.Nl.masters
  in
  if power.Sta.clock_mw > 0. && n_ff = 0 then begin
    let per_node = power.Sta.clock_mw /. float_of_int (2 * ny * nx) in
    for tier = 0 to 1 do
      for y = 0 to ny - 1 do
        for x = 0 to nx - 1 do
          add tier y x per_node
        done
      done
    done
  end;
  grid

(* ------------------------------------------------------------------ *)
(* Steady-state solve                                                  *)
(* ------------------------------------------------------------------ *)

let solve ?(config = default_config) ~power_grid () =
  let shape = T.shape power_grid in
  if Array.length shape <> 3 || shape.(0) <> 2 then
    invalid_arg "Thermal.solve: power grid must be [2; ny; nx]";
  let ny = shape.(1) and nx = shape.(2) in
  let nv = 2 * ny * nx in
  let idx tier y x = ((tier * ny) + y) * nx + x in
  let kl = config.k_lateral
  and kz = config.k_vertical
  and hs = config.h_sink in
  (* diagonal = sum of incident conductances (+ sink on the bottom
     die); with hs > 0 the system is an SPD weighted Laplacian *)
  let diag = Array.make nv 0. in
  for tier = 0 to 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        let nbrs =
          (if x > 0 then 1 else 0)
          + (if x < nx - 1 then 1 else 0)
          + (if y > 0 then 1 else 0)
          + if y < ny - 1 then 1 else 0
        in
        diag.(idx tier y x) <-
          (kl *. float_of_int nbrs) +. kz +. (if tier = 0 then hs else 0.)
      done
    done
  done;
  (* matrix-free A*v, parallel over the 2*ny grid rows: each output
     element is written by exactly one row task, so the product (and
     the whole CG trajectory built from it) is bit-identical at any
     DCO3D_JOBS *)
  let matvec v out =
    Pool.parallel_for 0 (2 * ny) (fun row ->
        let tier = row / ny in
        let y = row mod ny in
        let other = 1 - tier in
        let base = row * nx in
        for x = 0 to nx - 1 do
          let i = base + x in
          let acc = ref (diag.(i) *. v.(i)) in
          if x > 0 then acc := !acc -. (kl *. v.(i - 1));
          if x < nx - 1 then acc := !acc -. (kl *. v.(i + 1));
          if y > 0 then acc := !acc -. (kl *. v.(i - nx));
          if y < ny - 1 then acc := !acc -. (kl *. v.(i + nx));
          acc := !acc -. (kz *. v.(idx other y x));
          out.(i) <- !acc
        done)
  in
  let b = Array.make nv 0. in
  for tier = 0 to 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        b.(idx tier y x) <- T.get3 power_grid tier y x
      done
    done
  done;
  let iters = ref 0 in
  let status = ref Linalg.Converged in
  let rise =
    Obs.with_span "thermal_solve" (fun () ->
        Linalg.conjugate_gradient ~max_iter:config.max_iter ~tol:config.tol
          ~iterations_out:iters ~status_out:status matvec b
          (Array.make nv 0.))
  in
  Obs.incr c_solves;
  Obs.incr ~by:!iters c_cg_iters;
  (match !status with
  | Linalg.Breakdown -> Obs.incr c_breakdowns
  | Linalg.Converged | Linalg.Max_iter -> ());
  let data = Array.map (fun t -> t +. config.ambient_c) rise in
  let grid = T.make [| 2; ny; nx |] data in
  let peak = Array.fold_left Float.max neg_infinity data in
  let avg = Array.fold_left ( +. ) 0. data /. float_of_int nv in
  {
    grid;
    peak_c = peak;
    avg_c = avg;
    cg_iters = !iters;
    cg_status = !status;
  }

let solve_power ?config ~nx ~ny (p : Pl.t) power =
  let power_grid = power_density p ~power ~nx ~ny in
  solve ?config ~power_grid ()

let placement_power (p : Pl.t) =
  let nl = p.Pl.nl in
  let net_length =
    Array.map
      (fun (net : Nl.net) ->
        let x0, y0, x1, y1 = Pl.net_bbox p net in
        Float.max 0.5 (x1 -. x0 +. (y1 -. y0)))
      nl.Nl.nets
  in
  let cfg = Sta.default_config ~clock_period_ps:500. in
  Sta.estimate_power cfg nl ~net_length ()

let solve_placement ?config ?nx ?ny (p : Pl.t) =
  let fp = p.Pl.fp in
  let nx = Option.value nx ~default:fp.Dco3d_place.Floorplan.gcell_nx in
  let ny = Option.value ny ~default:fp.Dco3d_place.Floorplan.gcell_ny in
  solve_power ?config ~nx ~ny p (placement_power p)
