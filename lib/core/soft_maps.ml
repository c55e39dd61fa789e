module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value
module Nl = Dco3d_netlist.Netlist
module Pl = Dco3d_place.Placement
module Fp = Dco3d_place.Floorplan
module Obs = Dco3d_obs.Obs

(* channel layout inside the fused [16; ny; nx] tensor *)
let ch_density = 0
let ch_pins = 1
let ch_rudy2d = 2
let ch_rudy3d = 3
let ch_pinrudy2d = 4
let ch_pinrudy3d = 5
let ch_macro = 6
let ch_thermal = 7
let n_ch = 8

let min_span = 0.10

(* RUDY tiles visited (ox > 0 and oy > 0), forward and backward: a
   function of the placement alone, flushed once per pass *)
let c_tiles = Obs.counter "soft_maps/tiles"

let hard_assignment z =
  Array.init (T.numel z) (fun c -> if T.get_flat z c >= 0.5 then 1 else 0)

(* Per-net cache computed in the forward pass and reused by the
   backward pass. *)
type net_cache = {
  pins : Nl.endpoint array;  (** driver first *)
  px : float array;  (** pin positions snapshot *)
  py : float array;
  wtop : float array;  (** per-pin top weight (z for cells, 0 for IOs) *)
  bbox : float * float * float * float;
  arg_xl : int;  (** index into [pins] of the extreme pins *)
  arg_xh : int;
  arg_yl : int;
  arg_yh : int;
  weight : float;  (** (1/w + 1/h), clamped *)
  p_top : float;  (** prod of wtop *)
  p_bot : float;  (** prod of (1 - wtop) *)
  loo_top : float array;  (** leave-one-out products *)
  loo_bot : float array;
}

let leave_one_out a =
  let k = Array.length a in
  let prefix = Array.make (k + 1) 1. in
  let suffix = Array.make (k + 1) 1. in
  for i = 0 to k - 1 do
    prefix.(i + 1) <- prefix.(i) *. a.(i)
  done;
  for i = k - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) *. a.(i)
  done;
  (prefix.(k), Array.init k (fun i -> prefix.(i) *. suffix.(i + 1)))

(* [a.(i) <- a.(i) +. v] without a bounds check, for the tile loops,
   whose indices come from grid coordinates clamped into the map *)
let[@inline] add_at a i v = Array.unsafe_set a i (Array.unsafe_get a i +. v)

(* [v] clamped into [0, hi) *)
let[@inline] clamp_below hi v = Float.max 0. (Float.min (hi -. 1e-9) v)

(* Fill [ox_col.(gx)], gx0 <= gx <= gx1, with the overlap of the RUDY
   span [x0, x1] and column gx (width [bw]); return how many are
   positive.  The forward and the backward both call it, so their
   tiles carry the same bits.  Inlined, so its floats stay unboxed. *)
let[@inline] fill_ox_col ox_col ~bw ~x0 ~x1 ~gx0 ~gx1 =
  let cols = ref 0 in
  for gx = gx0 to gx1 do
    let tx0 = float_of_int gx *. bw and tx1 = float_of_int (gx + 1) *. bw in
    let ox = Float.min x1 tx1 -. Float.max x0 tx0 in
    if ox > 0. then incr cols;
    Array.unsafe_set ox_col gx ox
  done;
  !cols

(* Eq. 6: the gradient of one coordinate of the net's extreme pin
   [darg] — for each die d: kind_d * (dW * sum_d + W * dS_d), plus the
   3D channel with 0.5 * p3d — added into [garr] when that pin is a
   movable cell.  The tile sums [sum*] and the edge sums [d*] are
   given per die 0, die 1 and 3D. *)
let[@inline] edge_grad nl nc garr ~p3d ~sum0 ~sum1 ~sum3 ~darg ~dwd ~d0 ~d1 ~d3 sign =
  match nc.pins.(darg) with
  | Nl.Cell c when not (Nl.is_macro nl c) ->
      let acc =
        0.
        +. (nc.p_bot *. ((sign *. dwd *. sum0) +. (nc.weight *. d0)))
        +. (nc.p_top *. ((sign *. dwd *. sum1) +. (nc.weight *. d1)))
        +. (0.5 *. p3d *. ((sign *. dwd *. sum3) +. (nc.weight *. d3)))
      in
      garr.(c) <- garr.(c) +. acc
  | Nl.Cell _ | Nl.Io _ -> ()

let build ?thermal ~placement ~x ~y ~z ~nx ~ny () =
  let p = placement in
  let nl = p.Pl.nl in
  let fp = p.Pl.fp in
  let n = Nl.n_cells nl in
  if V.numel x <> n || V.numel y <> n || V.numel z <> n then
    invalid_arg "Soft_maps.build: coordinate vectors must have n_cells entries";
  if nx < 1 || ny < 1 then invalid_arg "Soft_maps.build: nx and ny must be positive";
  let die_w = fp.Fp.width and die_h = fp.Fp.height in
  let bw = die_w /. float_of_int nx and bh = die_h /. float_of_int ny in
  let bin_area = bw *. bh in
  let xt = V.data x and yt = V.data y and zt = V.data z in
  let xs = Array.init n (T.get_flat xt) in
  let ys = Array.init n (T.get_flat yt) in
  let zs = Array.init n (T.get_flat zt) in
  (* The tile and tent loops below are written out in full, in the
     forward and the backward alike, and read and write plain float
     arrays: a helper taking or returning floats would box them at
     every visit on a non-flambda build.  The one exception,
     [fill_ox_col], is inlined and returns an int. *)
  let out = Array.make (2 * n_ch * ny * nx) 0. in
  let plane die ch = ((die * n_ch) + ch) * ny * nx in
  let cl_x i = Int.max 0 (Int.min (nx - 1) i) in
  let cl_y j = Int.max 0 (Int.min (ny - 1) j) in

  (* Bilinear tent splat of a point (px, py): with
     u = px/bw - 1/2 = i0 + fu and v = py/bh - 1/2 = j0 + fv, the taps
     (dj, di) in order (0,0) (0,1) (1,0) (1,1) hit GCell
     (j0 + dj, i0 + di), clamped to the grid, with weight phi = wx * wy
     where wx = 1 - fu or fu and wy = 1 - fv or fv; dphi/dx = -+wy/bw
     and dphi/dy = -+wx/bh. *)

  (* ---------- cell density + macro blockage ---------- *)
  let d_dens0 = plane 0 ch_density and d_dens1 = plane 1 ch_density in
  for c = 0 to n - 1 do
    let area = Nl.cell_area nl c in
    if Nl.is_macro nl c then begin
      (* constant hard blockage on the macro's own tier *)
      let die = p.Pl.tier.(c) in
      let m = nl.Nl.masters.(c) in
      let w = m.Dco3d_netlist.Cell_lib.width in
      let h = m.Dco3d_netlist.Cell_lib.height in
      let x0 = xs.(c) -. (w /. 2.) and x1 = xs.(c) +. (w /. 2.) in
      let y0 = ys.(c) -. (h /. 2.) and y1 = ys.(c) +. (h /. 2.) in
      let gx0 = max 0 (int_of_float (x0 /. bw)) in
      let gx1 = min (nx - 1) (int_of_float (x1 /. bw)) in
      let gy0 = max 0 (int_of_float (y0 /. bh)) in
      let gy1 = min (ny - 1) (int_of_float (y1 /. bh)) in
      let d_macro = plane die ch_macro and d_dens = plane die ch_density in
      for gy = gy0 to gy1 do
        for gx = gx0 to gx1 do
          let ox = Float.max 0. (Float.min x1 (float_of_int (gx + 1) *. bw)
                                 -. Float.max x0 (float_of_int gx *. bw)) in
          let oy = Float.max 0. (Float.min y1 (float_of_int (gy + 1) *. bh)
                                 -. Float.max y0 (float_of_int gy *. bh)) in
          let a = ox *. oy /. bin_area in
          let k = (gy * nx) + gx in
          out.(d_macro + k) <- out.(d_macro + k) +. a;
          out.(d_dens + k) <- out.(d_dens + k) +. a
        done
      done
    end
    else begin
      let wt = zs.(c) in
      let a = area /. bin_area in
      let u = (clamp_below die_w xs.(c) /. bw) -. 0.5 in
      let v = (clamp_below die_h ys.(c) /. bh) -. 0.5 in
      let i0 = int_of_float (floor u) and j0 = int_of_float (floor v) in
      let fu = u -. float_of_int i0 and fv = v -. float_of_int j0 in
      for dj = 0 to 1 do
        let row = cl_y (j0 + dj) * nx in
        let wy = if dj = 0 then 1. -. fv else fv in
        for di = 0 to 1 do
          let k = row + cl_x (i0 + di) in
          let wx = if di = 0 then 1. -. fu else fu in
          let base = a *. (wx *. wy) in
          out.(d_dens0 + k) <- out.(d_dens0 + k) +. (base *. (1. -. wt));
          out.(d_dens1 + k) <- out.(d_dens1 + k) +. (base *. wt)
        done
      done
    end
  done;

  (* ---------- per-net quantities ---------- *)
  let signal_nets = Array.of_list (Nl.signal_nets nl) in
  let caches =
    Array.map
      (fun (net : Nl.net) ->
        let pins = Array.append [| net.Nl.driver |] net.Nl.sinks in
        let k = Array.length pins in
        let px = Array.make k 0. and py = Array.make k 0. in
        let wtop = Array.make k 0. in
        Array.iteri
          (fun i e ->
            match e with
            | Nl.Cell c ->
                px.(i) <- clamp_below die_w xs.(c);
                py.(i) <- clamp_below die_h ys.(c);
                wtop.(i) <- (if Nl.is_macro nl c then float_of_int p.Pl.tier.(c)
                             else zs.(c))
            | Nl.Io io ->
                px.(i) <- p.Pl.io_x.(io);
                py.(i) <- p.Pl.io_y.(io);
                wtop.(i) <- 0.)
          pins;
        let arg_xl = ref 0 and arg_xh = ref 0 and arg_yl = ref 0 and arg_yh = ref 0 in
        for i = 1 to k - 1 do
          if px.(i) < px.(!arg_xl) then arg_xl := i;
          if px.(i) > px.(!arg_xh) then arg_xh := i;
          if py.(i) < py.(!arg_yl) then arg_yl := i;
          if py.(i) > py.(!arg_yh) then arg_yh := i
        done;
        let x0 = px.(!arg_xl) and x1 = px.(!arg_xh) in
        let y0 = py.(!arg_yl) and y1 = py.(!arg_yh) in
        let w = Float.max min_span (x1 -. x0) in
        let h = Float.max min_span (y1 -. y0) in
        let weight = (1. /. w) +. (1. /. h) in
        let p_top, loo_top = leave_one_out wtop in
        let p_bot, loo_bot = leave_one_out (Array.map (fun v -> 1. -. v) wtop) in
        {
          pins; px; py; wtop;
          bbox = (x0, y0, x1, y1);
          arg_xl = !arg_xl; arg_xh = !arg_xh; arg_yl = !arg_yl; arg_yh = !arg_yh;
          weight; p_top; p_bot; loo_top; loo_bot;
        })
      signal_nets
  in

  (* RUDY tiles of a net: the bbox (x0, y0, x1, y1) widened to at least
     min_span, cut into its overlaps (ox, oy) with the GCells it
     touches; each tile carries s = ox * oy / bin_area.  The column
     overlaps ox are computed once per net into [ox_col] (gx0..gx1),
     the row overlap oy once per row, so a tile only reads them.
     [tiles] counts the tiles with ox > 0 and oy > 0. *)
  let d_r2d0 = plane 0 ch_rudy2d and d_r2d1 = plane 1 ch_rudy2d in
  let d_r3d0 = plane 0 ch_rudy3d and d_r3d1 = plane 1 ch_rudy3d in
  let d_pr2d0 = plane 0 ch_pinrudy2d and d_pr2d1 = plane 1 ch_pinrudy2d in
  let d_pr3d0 = plane 0 ch_pinrudy3d and d_pr3d1 = plane 1 ch_pinrudy3d in
  let d_pins0 = plane 0 ch_pins and d_pins1 = plane 1 ch_pins in
  let ox_col = Array.make nx 0. in
  let tiles = ref 0 in
  Array.iter
    (fun nc ->
      let p3d = Float.max 0. (1. -. nc.p_top -. nc.p_bot) in
      let w2_0 = nc.weight *. nc.p_bot and w2_1 = nc.weight *. nc.p_top in
      let w3 = 0.5 *. nc.weight *. p3d in
      (* RUDY channels *)
      let x0, y0, x1, y1 = nc.bbox in
      let x1 = Float.max x1 (x0 +. min_span) and y1 = Float.max y1 (y0 +. min_span) in
      let gx0 = cl_x (int_of_float (x0 /. bw)) and gx1 = cl_x (int_of_float (x1 /. bw)) in
      let gy0 = cl_y (int_of_float (y0 /. bh)) and gy1 = cl_y (int_of_float (y1 /. bh)) in
      let cols = fill_ox_col ox_col ~bw ~x0 ~x1 ~gx0 ~gx1 in
      for gy = gy0 to gy1 do
        let ty0 = float_of_int gy *. bh and ty1 = float_of_int (gy + 1) *. bh in
        let oy = Float.min y1 ty1 -. Float.max y0 ty0 in
        if oy > 0. then begin
          tiles := !tiles + cols;
          let row = gy * nx in
          for gx = gx0 to gx1 do
            let ox = Array.unsafe_get ox_col gx in
            if ox > 0. then begin
              let s = ox *. oy /. bin_area in
              let k = row + gx in
              add_at out (d_r2d0 + k) (w2_0 *. s);
              add_at out (d_r2d1 + k) (w2_1 *. s);
              let v3 = w3 *. s in
              add_at out (d_r3d0 + k) v3;
              add_at out (d_r3d1 + k) v3
            end
          done
        end
      done;
      (* PinRUDY channels and pin density (unit weight): tent splat at
         each pin *)
      for i = 0 to Array.length nc.pins - 1 do
        let wt = nc.wtop.(i) in
        let u = (nc.px.(i) /. bw) -. 0.5 and v = (nc.py.(i) /. bh) -. 0.5 in
        let i0 = int_of_float (floor u) and j0 = int_of_float (floor v) in
        let fu = u -. float_of_int i0 and fv = v -. float_of_int j0 in
        for dj = 0 to 1 do
          let row = cl_y (j0 + dj) * nx in
          let wy = if dj = 0 then 1. -. fv else fv in
          for di = 0 to 1 do
            let k = row + cl_x (i0 + di) in
            let wx = if di = 0 then 1. -. fu else fu in
            let phi = wx *. wy in
            out.(d_pr2d0 + k) <- out.(d_pr2d0 + k) +. (w2_0 *. (1. -. wt) *. phi);
            out.(d_pr2d1 + k) <- out.(d_pr2d1 + k) +. (w2_1 *. wt *. phi);
            let v3 = w3 *. phi in
            out.(d_pr3d0 + k) <- out.(d_pr3d0 + k) +. (v3 *. (1. -. wt));
            out.(d_pr3d1 + k) <- out.(d_pr3d1 + k) +. (v3 *. wt);
            out.(d_pins0 + k) <- out.(d_pins0 + k) +. ((1. -. wt) *. phi /. bin_area);
            out.(d_pins1 + k) <- out.(d_pins1 + k) +. (wt *. phi /. bin_area)
          done
        done
      done)
    caches;
  Obs.incr ~by:!tiles c_tiles;

  (* ---------- thermal plane: a frozen field ---------- *)
  (* The solved temperature-rise map enters the stack as a constant:
     the UNet sees it as an input channel, but position gradients flow
     through the dedicated Losses.thermal penalty (Gauss–Seidel-style
     alternation), not through re-solving the field on the tape. *)
  (match thermal with
  | None -> ()
  | Some tmap ->
      if T.rank tmap <> 3 || T.dim tmap 0 <> 2 || T.dim tmap 1 <> ny
         || T.dim tmap 2 <> nx
      then invalid_arg "Soft_maps.build: thermal map must be [2; ny; nx]";
      for die = 0 to 1 do
        let d = plane die ch_thermal in
        for k = 0 to (ny * nx) - 1 do
          out.(d + k) <- out.(d + k) +. T.get_flat tmap ((die * ny * nx) + k)
        done
      done);

  (* ------------------------------------------------------------------ *)
  (* custom backward                                                     *)
  (* ------------------------------------------------------------------ *)
  let backward (g : T.t) =
    Obs.with_span "soft_maps_bwd" @@ fun () ->
    let g = g.T.data in
    if Array.length g <> 2 * n_ch * ny * nx then
      invalid_arg "Soft_maps.build: cotangent shape differs from the maps";
    let gxa = Array.make n 0. and gya = Array.make n 0. and gza = Array.make n 0. in
    (* --- cell density --- *)
    for c = 0 to n - 1 do
      if not (Nl.is_macro nl c) then begin
        let area = Nl.cell_area nl c in
        let wt = zs.(c) in
        let a = area /. bin_area in
        let u = (clamp_below die_w xs.(c) /. bw) -. 0.5 in
        let v = (clamp_below die_h ys.(c) /. bh) -. 0.5 in
        let i0 = int_of_float (floor u) and j0 = int_of_float (floor v) in
        let fu = u -. float_of_int i0 and fv = v -. float_of_int j0 in
        for dj = 0 to 1 do
          let row = cl_y (j0 + dj) * nx in
          let wy = if dj = 0 then 1. -. fv else fv in
          for di = 0 to 1 do
            let k = row + cl_x (i0 + di) in
            let wx = if di = 0 then 1. -. fu else fu in
            let phi = wx *. wy in
            let dpx = (if di = 0 then -.wy else wy) /. bw in
            let dpy = (if dj = 0 then -.wx else wx) /. bh in
            let g0 = g.(d_dens0 + k) and g1 = g.(d_dens1 + k) in
            gxa.(c) <- gxa.(c) +. (a *. dpx *. (((1. -. wt) *. g0) +. (wt *. g1)));
            gya.(c) <- gya.(c) +. (a *. dpy *. (((1. -. wt) *. g0) +. (wt *. g1)));
            gza.(c) <- gza.(c) +. (a *. phi *. (g1 -. g0))
          done
        done
      end
    done;
    (* --- per-net channels --- *)
    (* Tile sums of one net, per die 0, die 1 and 3D (suffixes 0, 1, 3):
       sum_s = sum of S * g[d][rudy2d], and S * (g0 + g1)[rudy3d] for
       the 3D entry; dxl, dxh, dyl, dyh = the same sums of dS/d(edge)
       over the tiles cut by each bbox edge.  Each is one local float,
       added into in tile order (gy, then gx). *)
    let ox_col = Array.make nx 0. in
    let xh_col = Array.make nx false and xl_col = Array.make nx false in
    let tiles = ref 0 in
    Array.iter
      (fun nc ->
        let x0, y0, x1, y1 = nc.bbox in
        let w = Float.max min_span (x1 -. x0) in
        let h = Float.max min_span (y1 -. y0) in
        let p3d = Float.max 0. (1. -. nc.p_top -. nc.p_bot) in
        let sum0 = ref 0. and sum1 = ref 0. and sum3 = ref 0. in
        let dxl0 = ref 0. and dxl1 = ref 0. and dxl3 = ref 0. in
        let dxh0 = ref 0. and dxh1 = ref 0. and dxh3 = ref 0. in
        let dyl0 = ref 0. and dyl1 = ref 0. and dyl3 = ref 0. in
        let dyh0 = ref 0. and dyh1 = ref 0. and dyh3 = ref 0. in
        (* the tiles span the bbox widened to min_span (x1e, y1e); the
           edge tests use the bbox itself *)
        let x1e = Float.max x1 (x0 +. min_span) and y1e = Float.max y1 (y0 +. min_span) in
        let gx0 = cl_x (int_of_float (x0 /. bw)) and gx1 = cl_x (int_of_float (x1e /. bw)) in
        let gy0 = cl_y (int_of_float (y0 /. bh)) and gy1 = cl_y (int_of_float (y1e /. bh)) in
        (* per column: the overlap ox, and whether the right edge x1 or
           the left edge x0 lies inside the tile *)
        let cols = fill_ox_col ox_col ~bw ~x0 ~x1:x1e ~gx0 ~gx1 in
        for gx = gx0 to gx1 do
          let tx0 = float_of_int gx *. bw and tx1 = float_of_int (gx + 1) *. bw in
          Array.unsafe_set xh_col gx (x1 > tx0 && x1 <= tx1);
          Array.unsafe_set xl_col gx (x0 >= tx0 && x0 < tx1)
        done;
        for gy = gy0 to gy1 do
          let ty0 = float_of_int gy *. bh and ty1 = float_of_int (gy + 1) *. bh in
          let oy = Float.min y1e ty1 -. Float.max y0 ty0 in
          if oy > 0. then begin
            tiles := !tiles + cols;
            let yh = y1 > ty0 && y1 <= ty1 and yl = y0 >= ty0 && y0 < ty1 in
            let row = gy * nx in
            for gx = gx0 to gx1 do
              let ox = Array.unsafe_get ox_col gx in
              if ox > 0. then begin
                let s = ox *. oy /. bin_area in
                let k = row + gx in
                let g0 = Array.unsafe_get g (d_r2d0 + k) and g1 = Array.unsafe_get g (d_r2d1 + k) in
                let g3 = Array.unsafe_get g (d_r3d0 + k) +. Array.unsafe_get g (d_r3d1 + k) in
                sum0 := !sum0 +. (s *. g0);
                sum1 := !sum1 +. (s *. g1);
                sum3 := !sum3 +. (s *. g3);
                (* dS/d(boundary): the tiles whose overlap is cut by the
                   moving edge *)
                (* right edge x1 inside the tile: dox/dxh = 1 *)
                if Array.unsafe_get xh_col gx then begin
                  let d = oy /. bin_area in
                  dxh0 := !dxh0 +. (d *. g0);
                  dxh1 := !dxh1 +. (d *. g1);
                  dxh3 := !dxh3 +. (d *. g3)
                end;
                if Array.unsafe_get xl_col gx then begin
                  let d = -.oy /. bin_area in
                  dxl0 := !dxl0 +. (d *. g0);
                  dxl1 := !dxl1 +. (d *. g1);
                  dxl3 := !dxl3 +. (d *. g3)
                end;
                if yh then begin
                  let d = ox /. bin_area in
                  dyh0 := !dyh0 +. (d *. g0);
                  dyh1 := !dyh1 +. (d *. g1);
                  dyh3 := !dyh3 +. (d *. g3)
                end;
                if yl then begin
                  let d = -.ox /. bin_area in
                  dyl0 := !dyl0 +. (d *. g0);
                  dyl1 := !dyl1 +. (d *. g1);
                  dyl3 := !dyl3 +. (d *. g3)
                end
              end
            done
          end
        done;
        (* dW/d(edge) and dS/d(edge): both vanish while the span is
           clamped at min_span (moving the extreme pin then leaves the
           effective bbox unchanged) *)
        let x_live = x1 -. x0 > min_span and y_live = y1 -. y0 > min_span in
        let dw_dxh = if x_live then -1. /. (w *. w) else 0. in
        let dh_dyh = if y_live then -1. /. (h *. h) else 0. in
        if not x_live then begin
          dxl0 := 0.; dxl1 := 0.; dxl3 := 0.;
          dxh0 := 0.; dxh1 := 0.; dxh3 := 0.
        end;
        if not y_live then begin
          dyl0 := 0.; dyl1 := 0.; dyl3 := 0.;
          dyh0 := 0.; dyh1 := 0.; dyh3 := 0.
        end;
        let sum0 = !sum0 and sum1 = !sum1 and sum3 = !sum3 in
        (* Eq. 6: only the extreme pins receive position gradients *)
        edge_grad nl nc gxa ~p3d ~sum0 ~sum1 ~sum3 ~darg:nc.arg_xh ~dwd:dw_dxh
          ~d0:!dxh0 ~d1:!dxh1 ~d3:!dxh3 1.;
        edge_grad nl nc gxa ~p3d ~sum0 ~sum1 ~sum3 ~darg:nc.arg_xl ~dwd:dw_dxh
          ~d0:!dxl0 ~d1:!dxl1 ~d3:!dxl3 (-1.);
        edge_grad nl nc gya ~p3d ~sum0 ~sum1 ~sum3 ~darg:nc.arg_yh ~dwd:dh_dyh
          ~d0:!dyh0 ~d1:!dyh1 ~d3:!dyh3 1.;
        edge_grad nl nc gya ~p3d ~sum0 ~sum1 ~sum3 ~darg:nc.arg_yl ~dwd:dh_dyh
          ~d0:!dyl0 ~d1:!dyl1 ~d3:!dyl3 (-1.);
        let w2_0 = nc.weight *. nc.p_bot and w2_1 = nc.weight *. nc.p_top in
        let w3 = 0.5 *. nc.weight *. p3d in
        (* z gradients through the soft tier products (RUDY channels) *)
        for i = 0 to Array.length nc.pins - 1 do
          match nc.pins.(i) with
          | Nl.Cell c when not (Nl.is_macro nl c) ->
              let dtop = nc.loo_top.(i) in
              let dbot = -.nc.loo_bot.(i) in
              let d3 = if p3d > 0. then -.dtop -. dbot else 0. in
              gza.(c) <-
                gza.(c)
                +. (nc.weight
                   *. ((dbot *. sum0) +. (dtop *. sum1) +. (0.5 *. d3 *. sum3)))
          | Nl.Cell _ | Nl.Io _ -> ()
        done;
        (* PinRUDY + pin-density backward: tent position gradients with
           the net-level scales treated as constants (sub-gradient
           choice, like Eq. 6 keeps only the dominant terms), plus the
           local z factor *)
        for i = 0 to Array.length nc.pins - 1 do
          match nc.pins.(i) with
          | Nl.Cell c when not (Nl.is_macro nl c) ->
              let wt = nc.wtop.(i) in
              let u = (nc.px.(i) /. bw) -. 0.5 and v = (nc.py.(i) /. bh) -. 0.5 in
              let i0 = int_of_float (floor u) and j0 = int_of_float (floor v) in
              let fu = u -. float_of_int i0 and fv = v -. float_of_int j0 in
              for dj = 0 to 1 do
                let row = cl_y (j0 + dj) * nx in
                let wy = if dj = 0 then 1. -. fv else fv in
                for di = 0 to 1 do
                  let k = row + cl_x (i0 + di) in
                  let wx = if di = 0 then 1. -. fu else fu in
                  let phi = wx *. wy in
                  let dpx = (if di = 0 then -.wy else wy) /. bw in
                  let dpy = (if dj = 0 then -.wx else wx) /. bh in
                  (* coefficient of phi for each die *)
                  let e0 =
                    (g.(d_pins0 + k) /. bin_area) +. (w2_0 *. g.(d_pr2d0 + k))
                    +. (w3 *. g.(d_pr3d0 + k))
                  in
                  let e1 =
                    (g.(d_pins1 + k) /. bin_area) +. (w2_1 *. g.(d_pr2d1 + k))
                    +. (w3 *. g.(d_pr3d1 + k))
                  in
                  let coef_x = ((1. -. wt) *. e0) +. (wt *. e1) in
                  gxa.(c) <- gxa.(c) +. (coef_x *. dpx);
                  gya.(c) <- gya.(c) +. (coef_x *. dpy);
                  (* z: d/dz of the local (1-wt)/wt factors *)
                  gza.(c) <- gza.(c) +. (phi *. (-.e0 +. e1))
                done
              done
          | Nl.Cell _ | Nl.Io _ -> ()
        done)
      caches;
    Obs.incr ~by:!tiles c_tiles;
    [ Some (T.make [| n |] gxa); Some (T.make [| n |] gya); Some (T.make [| n |] gza) ]
  in
  let fused =
    V.custom ~data:(T.make [| 2 * n_ch; ny; nx |] out) ~parents:[ x; y; z ] ~backward
  in
  (V.slice_channels fused 0 n_ch, V.slice_channels fused n_ch n_ch)
