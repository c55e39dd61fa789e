module Nl = Dco3d_netlist.Netlist
module T = Dco3d_tensor.Tensor

type t = {
  nl : Nl.t;
  fp : Floorplan.t;
  x : float array;
  y : float array;
  tier : int array;
  io_x : float array;
  io_y : float array;
}

let create nl fp =
  let n = Nl.n_cells nl in
  let ni = Nl.n_ios nl in
  let io_x = Array.make ni 0. and io_y = Array.make ni 0. in
  for i = 0 to ni - 1 do
    let px, py = Floorplan.io_position fp ~n_ios:ni i in
    io_x.(i) <- px;
    io_y.(i) <- py
  done;
  {
    nl;
    fp;
    x = Array.make n (fp.Floorplan.width /. 2.);
    y = Array.make n (fp.Floorplan.height /. 2.);
    tier = Array.make n 0;
    io_x;
    io_y;
  }

let copy p =
  {
    p with
    x = Array.copy p.x;
    y = Array.copy p.y;
    tier = Array.copy p.tier;
  }

let endpoint_position p = function
  | Nl.Cell c -> (p.x.(c), p.y.(c), p.tier.(c))
  | Nl.Io i -> (p.io_x.(i), p.io_y.(i), 0)

let net_bbox p (net : Nl.net) =
  let x0 = ref infinity and y0 = ref infinity in
  let x1 = ref neg_infinity and y1 = ref neg_infinity in
  let visit e =
    let x, y, _ = endpoint_position p e in
    if x < !x0 then x0 := x;
    if x > !x1 then x1 := x;
    if y < !y0 then y0 := y;
    if y > !y1 then y1 := y
  in
  visit net.Nl.driver;
  Array.iter visit net.Nl.sinks;
  (!x0, !y0, !x1, !y1)

let net_is_3d p (net : Nl.net) =
  let _, _, t0 = endpoint_position p net.Nl.driver in
  Array.exists
    (fun e ->
      let _, _, t = endpoint_position p e in
      t <> t0)
    net.Nl.sinks

let hpwl p =
  List.fold_left
    (fun acc net ->
      let x0, y0, x1, y1 = net_bbox p net in
      acc +. (x1 -. x0) +. (y1 -. y0))
    0. (Nl.signal_nets p.nl)

let cut_size p =
  List.fold_left
    (fun acc net -> if net_is_3d p net then acc + 1 else acc)
    0 (Nl.signal_nets p.nl)

let displacement_from p q =
  if p.nl != q.nl && Nl.n_cells p.nl <> Nl.n_cells q.nl then
    invalid_arg "Placement.displacement_from: different netlists";
  let n = Array.length p.x in
  if n = 0 then 0.
  else begin
    let acc = ref 0. in
    for c = 0 to n - 1 do
      let dx = p.x.(c) -. q.x.(c) and dy = p.y.(c) -. q.y.(c) in
      acc := !acc +. sqrt ((dx *. dx) +. (dy *. dy))
    done;
    !acc /. float_of_int n
  end

let max_displacement_from p q =
  let n = Array.length p.x in
  let best = ref 0. in
  for c = 0 to n - 1 do
    let dx = p.x.(c) -. q.x.(c) and dy = p.y.(c) -. q.y.(c) in
    best := Float.max !best (sqrt ((dx *. dx) +. (dy *. dy)))
  done;
  !best

let density_map p ~tier ~nx ~ny =
  let m = T.zeros [| ny; nx |] in
  let bw = p.fp.Floorplan.width /. float_of_int nx in
  let bh = p.fp.Floorplan.height /. float_of_int ny in
  let bin_area = bw *. bh in
  let n = Array.length p.x in
  for c = 0 to n - 1 do
    if p.tier.(c) = tier then begin
      (* spread the cell's area over the bins its footprint overlaps *)
      let m_ = p.nl.Nl.masters.(c) in
      let w = m_.Dco3d_netlist.Cell_lib.width in
      let h = m_.Dco3d_netlist.Cell_lib.height in
      let x0 = p.x.(c) -. (w /. 2.) and x1 = p.x.(c) +. (w /. 2.) in
      let y0 = p.y.(c) -. (h /. 2.) and y1 = p.y.(c) +. (h /. 2.) in
      let gx0 = max 0 (int_of_float (x0 /. bw)) in
      let gx1 = min (nx - 1) (int_of_float (x1 /. bw)) in
      let gy0 = max 0 (int_of_float (y0 /. bh)) in
      let gy1 = min (ny - 1) (int_of_float (y1 /. bh)) in
      for gy = gy0 to gy1 do
        for gx = gx0 to gx1 do
          let ox =
            Float.max 0.
              (Float.min x1 (float_of_int (gx + 1) *. bw)
              -. Float.max x0 (float_of_int gx *. bw))
          in
          let oy =
            Float.max 0.
              (Float.min y1 (float_of_int (gy + 1) *. bh)
              -. Float.max y0 (float_of_int gy *. bh))
          in
          T.set2 m gy gx (T.get2 m gy gx +. (ox *. oy /. bin_area))
        done
      done
    end
  done;
  m

let tier_areas p =
  let bot = ref 0. and top = ref 0. in
  let n = Array.length p.x in
  for c = 0 to n - 1 do
    let a = Nl.cell_area p.nl c in
    if p.tier.(c) = 0 then bot := !bot +. a else top := !top +. a
  done;
  (!bot, !top)

let tier_balance p =
  let bot, top = tier_areas p in
  let total = bot +. top in
  if total <= 0. then 0. else abs_float (bot -. top) /. total

let clamp_to_die p =
  let n = Array.length p.x in
  for c = 0 to n - 1 do
    (* keep the whole footprint inside the outline, not just the
       center — macros are wide enough for the difference to matter *)
    let m = p.nl.Nl.masters.(c) in
    let hw = Float.min (m.Dco3d_netlist.Cell_lib.width /. 2.) (p.fp.Floorplan.width /. 2.) in
    let hh = Float.min (m.Dco3d_netlist.Cell_lib.height /. 2.) (p.fp.Floorplan.height /. 2.) in
    p.x.(c) <- Float.max hw (Float.min (p.fp.Floorplan.width -. hw) p.x.(c));
    p.y.(c) <- Float.max hh (Float.min (p.fp.Floorplan.height -. hh) p.y.(c))
  done
