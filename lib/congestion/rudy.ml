module T = Dco3d_tensor.Tensor
module Ws = Dco3d_tensor.Workspace
module Nl = Dco3d_netlist.Netlist
module Pl = Dco3d_place.Placement
module Pool = Dco3d_parallel.Pool

(* Nets per parallel chunk.  Each chunk accumulates into a private map
   and the partials are merged in chunk order, so the float reduction
   tree is fixed by this constant alone — never by DCO3D_JOBS — keeping
   RUDY bit-identical at any job count. *)
let nets_per_chunk = 256

type kind = Two_d | Three_d | All

(* Minimum bounding-box span (um): a zero-extent net still occupies one
   wire's worth of track. *)
let min_span = 0.10

let net_weight w h = (1. /. Float.max min_span w) +. (1. /. Float.max min_span h)

(* Raw-buffer kernel: accumulate one net's contribution into the map
   slice at [off] of [buf].  Working on a bare float slice (rather than
   through [T.get2]/[T.set2], which re-read the shape and bounds-check
   on every tile) lets the chunk bodies run on workspace slabs with no
   per-access overhead; the float expressions are kept verbatim so the
   results are bit-identical to the tensor version.  An empty map is
   rejected: its clamped tile index would be 0, past the end. *)
let accumulate_net_buf buf ~off ~nx ~ny ~bw ~bh ~bbox:(x0, y0, x1, y1) ~weight
    =
  if nx < 1 || ny < 1 then invalid_arg "Rudy.accumulate_net: empty map";
  if weight <> 0. then begin
    (* give degenerate boxes the minimal span so they land somewhere *)
    let x1 = Float.max x1 (x0 +. min_span) and y1 = Float.max y1 (y0 +. min_span) in
    let gx0 = max 0 (min (nx - 1) (int_of_float (x0 /. bw))) in
    let gx1 = max 0 (min (nx - 1) (int_of_float (x1 /. bw))) in
    let gy0 = max 0 (min (ny - 1) (int_of_float (y0 /. bh))) in
    let gy1 = max 0 (min (ny - 1) (int_of_float (y1 /. bh))) in
    let tile_area = bw *. bh in
    for gy = gy0 to gy1 do
      let oy =
        Float.min y1 (float_of_int (gy + 1) *. bh)
        -. Float.max y0 (float_of_int gy *. bh)
      in
      if oy > 0. then begin
        let rowbase = off + (gy * nx) in
        for gx = gx0 to gx1 do
          let ox =
            Float.min x1 (float_of_int (gx + 1) *. bw)
            -. Float.max x0 (float_of_int gx *. bw)
          in
          if ox > 0. then
            Array.unsafe_set buf (rowbase + gx)
              (Array.unsafe_get buf (rowbase + gx)
              +. (weight *. ox *. oy /. tile_area))
        done
      end
    done
  end

let accumulate_net map ~die_w ~die_h ~bbox ~weight =
  let ny = T.dim map 0 and nx = T.dim map 1 in
  let bw = die_w /. float_of_int nx and bh = die_h /. float_of_int ny in
  accumulate_net_buf map.T.data ~off:0 ~nx ~ny ~bw ~bh ~bbox ~weight

let net_selector p ~tier ~kind (net : Nl.net) =
  let is_3d = Pl.net_is_3d p net in
  match kind with
  | All ->
      (* classic 2D estimator: every net whose bbox touches this die *)
      let _, _, t0 = Pl.endpoint_position p net.Nl.driver in
      let on_tier =
        t0 = tier
        || Array.exists
             (fun e ->
               let _, _, t = Pl.endpoint_position p e in
               t = tier)
             net.Nl.sinks
      in
      if on_tier then Some 1.0 else None
  | Two_d ->
      if is_3d then None
      else begin
        let _, _, t0 = Pl.endpoint_position p net.Nl.driver in
        if t0 = tier then Some 1.0 else None
      end
  | Three_d -> if is_3d then Some 0.5 else None

(* Shared parallel driver.  One zeroed workspace slab holds every
   chunk's private partial map side by side; chunk [c] accumulates into
   slice [c] and the slices are merged into the result in ascending
   chunk order.  The reduction tree (hence every result bit) is fixed
   by [nets_per_chunk] alone — never by DCO3D_JOBS — exactly as in the
   v1 tensor-partials version, but with zero per-chunk allocation: the
   slab is borrowed, reused across calls, and released on exit. *)
let over_nets p ~nx ~ny accumulate =
  let nets = Array.of_list (Nl.signal_nets p.Pl.nl) in
  let n = Array.length nets in
  let size = ny * nx in
  let out = T.zeros [| ny; nx |] in
  if n > 0 && size > 0 then begin
    let n_chunks = (n + nets_per_chunk - 1) / nets_per_chunk in
    Ws.with_floats (n_chunks * size) (fun slab ->
        Array.fill slab 0 (n_chunks * size) 0.;
        Pool.for_chunks ~chunk:nets_per_chunk 0 n (fun lo hi ->
            let off = lo / nets_per_chunk * size in
            for i = lo to hi - 1 do
              accumulate slab off nets.(i)
            done);
        let od = out.T.data in
        for c = 0 to n_chunks - 1 do
          let coff = c * size in
          for i = 0 to size - 1 do
            Array.unsafe_set od i
              (Array.unsafe_get od i +. Array.unsafe_get slab (coff + i))
          done
        done)
  end;
  out

let rudy_map p ~tier ~kind ~nx ~ny =
  let fp = p.Pl.fp in
  let die_w = fp.Dco3d_place.Floorplan.width in
  let die_h = fp.Dco3d_place.Floorplan.height in
  let bw = die_w /. float_of_int nx and bh = die_h /. float_of_int ny in
  over_nets p ~nx ~ny (fun buf off (net : Nl.net) ->
      match net_selector p ~tier ~kind net with
      | None -> ()
      | Some scale ->
          let x0, y0, x1, y1 = Pl.net_bbox p net in
          let w = x1 -. x0 and h = y1 -. y0 in
          accumulate_net_buf buf ~off ~nx ~ny ~bw ~bh
            ~bbox:(x0, y0, x1, y1)
            ~weight:(scale *. net_weight w h))

let pin_rudy_map p ~tier ~kind ~nx ~ny =
  let fp = p.Pl.fp in
  let die_w = fp.Dco3d_place.Floorplan.width in
  let die_h = fp.Dco3d_place.Floorplan.height in
  let bw = die_w /. float_of_int nx and bh = die_h /. float_of_int ny in
  over_nets p ~nx ~ny (fun buf off (net : Nl.net) ->
      match net_selector p ~tier ~kind net with
      | None -> ()
      | Some scale ->
          let x0, y0, x1, y1 = Pl.net_bbox p net in
          let weight = scale *. net_weight (x1 -. x0) (y1 -. y0) in
          let add e =
            let x, y, t = Pl.endpoint_position p e in
            if t = tier then begin
              let gx = max 0 (min (nx - 1) (int_of_float (x /. bw))) in
              let gy = max 0 (min (ny - 1) (int_of_float (y /. bh))) in
              let idx = off + (gy * nx) + gx in
              Array.unsafe_set buf idx (Array.unsafe_get buf idx +. weight)
            end
          in
          add net.Nl.driver;
          Array.iter add net.Nl.sinks)
