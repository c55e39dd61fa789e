module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value
module Csr = Dco3d_graph.Csr
module Gcn = Dco3d_graph.Gcn
module Nl = Dco3d_netlist.Netlist
module Pl = Dco3d_place.Placement
module Fp = Dco3d_place.Floorplan

let congestion c0 c1 =
  let zeros v = T.zeros (V.shape v) in
  V.scale 0.5
    (V.add (V.rmse_frobenius c0 (zeros c0)) (V.rmse_frobenius c1 (zeros c1)))

type cut_graph = { op : Gcn.graph; total : T.t }

let cut_graph adj =
  {
    op = Gcn.graph adj;
    total = T.scalar (Array.fold_left ( +. ) 0. (Csr.row_sums adj));
  }

let cutsize ~graph z =
  let n = V.numel z in
  if Csr.nnz graph.op.Gcn.adj = 0 then V.scalar 0.
  else begin
    let z2 = V.reshape z [| n; 1 |] in
    let az = Gcn.spmm graph.op z2 in
    (* scalar building blocks *)
    let zaz = V.dot (V.reshape z2 [| n |]) (V.reshape az [| n |]) in
    let sum_az = V.sum az in
    (* cut = 1'Az - z'Az ; deg_T = z'Az ; deg_B = total - 2 1'Az + z'Az *)
    let cut = V.sub sum_az zaz in
    let deg_t = zaz in
    let deg_b = V.add (V.sub (V.const graph.total) (V.scale 2. sum_az)) zaz in
    let eps = 1e-6 in
    V.add
      (V.div cut (V.add_scalar eps deg_t))
      (V.div cut (V.add_scalar eps deg_b))
  end

let overlap ?(target = 0.85) f_bottom f_top =
  let pen f =
    let d = V.slice_channels f 0 1 in
    V.mean (V.sqr (V.relu (V.add_scalar (-.target) d)))
  in
  V.add (pen f_bottom) (pen f_top)

let displacement ~x ~y ~x0 ~y0 =
  let dx = V.sub x (V.const x0) and dy = V.sub y (V.const y0) in
  let n = float_of_int (max 1 (V.numel x)) in
  V.scale (1. /. n) (V.add (V.dot dx dx) (V.dot dy dy))

(* Thermal penalty (the TaiWei-style coupling): with the solved
   temperature-rise field held frozen, each movable cell pays its power
   times the temperature it sits on,

     L_th = (1/n) sum_c  p_c [ (1 - z_c) T_bot(x_c, y_c)
                             + z_c       T_top(x_c, y_c) ]

   with [T] bilinearly interpolated.  Gradients push a hot cell
   down-gradient laterally (d T / d x) and toward the cooler tier
   (d / d z = p_c (T_top - T_bot)): hot cells repel across tiers.
   The field itself is NOT differentiated — the loop re-solves it from
   the updated positions (Gauss–Seidel-style alternation), which keeps
   the backward pass exact for the frozen field and avoids
   differentiating through the CG solve. *)
let thermal ~grid ~cell_mw ~placement ~nx ~ny ~x ~y ~z =
  let p = placement in
  let nl = p.Pl.nl in
  let fp = p.Pl.fp in
  let n = Nl.n_cells nl in
  if T.rank grid <> 3 || T.dim grid 0 <> 2 || T.dim grid 1 <> ny
     || T.dim grid 2 <> nx
  then invalid_arg "Losses.thermal: grid must be [2; ny; nx]";
  if Array.length cell_mw <> n then
    invalid_arg "Losses.thermal: cell_mw must have n_cells entries";
  let die_w = fp.Fp.width and die_h = fp.Fp.height in
  let bw = die_w /. float_of_int nx and bh = die_h /. float_of_int ny in
  let xs = V.data x and ys = V.data y and zs = V.data z in
  (* normalize by the movable power so the loss is the power-weighted
     mean of T^2/2 — O(K^2) regardless of design size or absolute power,
     which keeps epsilon on the same footing as the other loss weights
     (raw mW/n weights put the gradient orders of magnitude below the
     congestion and displacement terms) *)
  let movable_mw = ref 0. in
  for c = 0 to n - 1 do
    if not (Nl.is_macro nl c) then movable_mw := !movable_mw +. cell_mw.(c)
  done;
  let inv_p = 1. /. Float.max 1e-12 !movable_mw in
  let gx_arr = T.zeros [| n |] in
  let gy_arr = T.zeros [| n |] in
  let gz_arr = T.zeros [| n |] in
  let total = ref 0. in
  for c = 0 to n - 1 do
    if not (Nl.is_macro nl c) then begin
      let px = Float.max 0. (Float.min (die_w -. 1e-9) (T.get_flat xs c)) in
      let py = Float.max 0. (Float.min (die_h -. 1e-9) (T.get_flat ys c)) in
      let zc = T.get_flat zs c in
      (* bilinear taps at the cell center (same tent as the soft maps) *)
      let u = (px /. bw) -. 0.5 and v = (py /. bh) -. 0.5 in
      let i0 = int_of_float (floor u) and j0 = int_of_float (floor v) in
      let fu = u -. float_of_int i0 and fv = v -. float_of_int j0 in
      let cl_x i = max 0 (min (nx - 1) i) in
      let cl_y j = max 0 (min (ny - 1) j) in
      let taps =
        [|
          (cl_y j0, cl_x i0, (1. -. fu) *. (1. -. fv),
           -.(1. -. fv) /. bw, -.(1. -. fu) /. bh);
          (cl_y j0, cl_x (i0 + 1), fu *. (1. -. fv),
           (1. -. fv) /. bw, -.fu /. bh);
          (cl_y (j0 + 1), cl_x i0, (1. -. fu) *. fv,
           -.fv /. bw, (1. -. fu) /. bh);
          (cl_y (j0 + 1), cl_x (i0 + 1), fu *. fv, fv /. bw, fu /. bh);
        |]
      in
      let t0 = ref 0. and t1 = ref 0. in
      let dt0x = ref 0. and dt0y = ref 0. in
      let dt1x = ref 0. and dt1y = ref 0. in
      Array.iter
        (fun (gy, gx, phi, dpx, dpy) ->
          let v0 = T.get3 grid 0 gy gx and v1 = T.get3 grid 1 gy gx in
          t0 := !t0 +. (phi *. v0);
          t1 := !t1 +. (phi *. v1);
          dt0x := !dt0x +. (dpx *. v0);
          dt0y := !dt0y +. (dpy *. v0);
          dt1x := !dt1x +. (dpx *. v1);
          dt1y := !dt1y +. (dpy *. v1))
        taps;
      let w = cell_mw.(c) *. inv_p in
      (* quadratic in the local rise: the force on a cell scales with
         how hot its bin already is, so the hottest bins shed power
         first (a linear term pulls as hard on mildly-warm cells as on
         the peak and barely moves the maximum) *)
      let sq v = 0.5 *. v *. v in
      total := !total +. (w *. (((1. -. zc) *. sq !t0) +. (zc *. sq !t1)));
      T.set_flat gx_arr c
        (w *. (((1. -. zc) *. !t0 *. !dt0x) +. (zc *. !t1 *. !dt1x)));
      T.set_flat gy_arr c
        (w *. (((1. -. zc) *. !t0 *. !dt0y) +. (zc *. !t1 *. !dt1y)));
      T.set_flat gz_arr c (w *. (sq !t1 -. sq !t0))
    end
  done;
  V.custom ~data:(T.scalar !total) ~parents:[ x; y; z ]
    ~backward:(fun g ->
      let gs = T.get_flat g 0 in
      [
        Some (T.scale gs gx_arr);
        Some (T.scale gs gy_arr);
        Some (T.scale gs gz_arr);
      ])
