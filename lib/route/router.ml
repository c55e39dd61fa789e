module T = Dco3d_tensor.Tensor
module Nl = Dco3d_netlist.Netlist
module Obs = Dco3d_obs.Obs
module Pl = Dco3d_place.Placement
module Fp = Dco3d_place.Floorplan
module Pool = Dco3d_parallel.Pool

type config = {
  cap_h : int;
  cap_v : int;
  cap_via : int;
  max_iterations : int;
  history_weight : float;
  overflow_penalty : float;
  pin_blockage : float;
  (** fraction of tracks lost to pin access in a fully pin-saturated
      GCell — the sub-10nm effect that makes cell spreading relieve
      congestion *)
  pin_saturation : float;  (** pins per um^2 that count as saturated *)
}

let default_config fp =
  (* Track counts from GCell geometry at a 3nm-like signal-routing
     pitch (~30 nm) over a stack with three horizontal and two vertical
     signal layers; the H-richer stack is what skews overflow toward V,
     as in most of Table III. *)
  let pitch = 0.025 in
  let tracks span layers =
    max 2 (int_of_float (span /. pitch)) * layers
  in
  {
    cap_h = tracks (Fp.gcell_h fp) 3;
    cap_v = tracks (Fp.gcell_w fp) 2;
    cap_via = max 4 (int_of_float (Fp.gcell_w fp *. Fp.gcell_h fp /. 0.25));
    max_iterations = 3;
    history_weight = 0.4;
    overflow_penalty = 3.0;
    pin_blockage = 0.75;
    pin_saturation = 45.0;
  }

(* Per-GCell pin densities (pins / um^2), per tier. *)
let pin_density_bins (p : Pl.t) =
  let fp = p.Pl.fp in
  let nx = fp.Fp.gcell_nx and ny = fp.Fp.gcell_ny in
  let bw = Fp.gcell_w fp and bh = Fp.gcell_h fp in
  let bins = Array.init 2 (fun _ -> Array.make_matrix ny nx 0.) in
  let add e =
    let x, y, tier = Pl.endpoint_position p e in
    let gx = max 0 (min (nx - 1) (int_of_float (x /. bw))) in
    let gy = max 0 (min (ny - 1) (int_of_float (y /. bh))) in
    bins.(tier).(gy).(gx) <- bins.(tier).(gy).(gx) +. 1.
  in
  List.iter
    (fun (net : Nl.net) ->
      add net.Nl.driver;
      Array.iter add net.Nl.sinks)
    (Nl.signal_nets p.Pl.nl);
  let area = bw *. bh in
  Array.iter
    (fun tier_bins ->
      Array.iter
        (fun row ->
          Array.iteri (fun i v -> row.(i) <- v /. area) row)
        tier_bins)
    bins;
  bins

let calibrated_config ?(target_util_h = 0.52) ?(target_util_v = 0.66) p =
  let fp = p.Pl.fp in
  let base = default_config fp in
  let gw = Fp.gcell_w fp and gh = Fp.gcell_h fp in
  let demand_h = ref 0. and demand_v = ref 0. in
  List.iter
    (fun net ->
      let x0, y0, x1, y1 = Pl.net_bbox p net in
      demand_h := !demand_h +. ((x1 -. x0) /. gw);
      demand_v := !demand_v +. ((y1 -. y0) /. gh))
    (Nl.signal_nets p.Pl.nl);
  let nx = fp.Fp.gcell_nx and ny = fp.Fp.gcell_ny in
  let n_h = float_of_int (2 * ny * (nx - 1)) in
  let n_v = float_of_int (2 * (ny - 1) * nx) in
  (* pin-blockage saturation relative to this design's own mean pin
     density, so only genuinely dense clusters lose tracks; then
     compensate the nominal capacities for the average derating so the
     target utilizations still hold on average *)
  let bins = pin_density_bins p in
  let mean_density =
    let acc = ref 0. and k = ref 0 in
    Array.iter
      (Array.iter (Array.iter (fun v -> acc := !acc +. v; incr k)))
      bins;
    if !k = 0 then 1. else !acc /. float_of_int !k
  in
  let pin_saturation = Float.max 1e-6 (1.8 *. mean_density) in
  let mean_derate =
    let acc = ref 0. and k = ref 0 in
    Array.iter
      (Array.iter
         (Array.iter (fun v ->
              acc :=
                !acc
                +. Float.max 0.15
                     (1. -. (base.pin_blockage *. (v /. pin_saturation)));
              incr k)))
      bins;
    if !k = 0 then 1. else !acc /. float_of_int !k
  in
  (* hybrid-bond capacity: each die-crossing net lands ~1-2 bonds; size
     the per-GCell bond count so average via utilization sits near the
     H target *)
  let n_3d =
    List.fold_left
      (fun acc net -> if Pl.net_is_3d p net then acc + 1 else acc)
      0 (Nl.signal_nets p.Pl.nl)
  in
  let n_bins = float_of_int (fp.Fp.gcell_nx * fp.Fp.gcell_ny) in
  {
    base with
    pin_saturation;
    cap_h =
      max 4
        (int_of_float
           (Float.round (!demand_h /. n_h /. target_util_h /. mean_derate)));
    cap_v =
      max 4
        (int_of_float
           (Float.round (!demand_v /. n_v /. target_util_v /. mean_derate)));
    cap_via =
      max 4
        (int_of_float
           (Float.round (1.5 *. float_of_int n_3d /. n_bins /. target_util_h)));
  }

type result = {
  overflow_total : int;
  overflow_h : int;
  overflow_v : int;
  overflow_via : int;
  overflow_gcell_pct : float;
  wirelength : float;
  congestion : T.t array;
  utilization : T.t array;
  net_length : float array;
  iterations_run : int;
  net_edges : int array array;
  history : float array;
  config : config;
}

(* ------------------------------------------------------------------ *)
(* Binary min-heap for A*                                              *)
(* ------------------------------------------------------------------ *)

module Heap = struct
  type t = {
    mutable keys : float array;
    mutable vals : int array;
    mutable len : int;
  }

  let create () = { keys = Array.make 256 0.; vals = Array.make 256 0; len = 0 }
  let clear h = h.len <- 0
  let is_empty h = h.len = 0

  let grow h =
    let keys = Array.make (2 * h.len) 0. and vals = Array.make (2 * h.len) 0 in
    Array.blit h.keys 0 keys 0 h.len;
    Array.blit h.vals 0 vals 0 h.len;
    h.keys <- keys;
    h.vals <- vals

  (* Hole sifts: the moving entry is held in locals and written once,
     at its final slot.  Each step makes exactly the comparison the
     textbook swap loop makes (the moving key sits in the hole there
     too), so both leave the same array layout and pop ties in the same
     order.  Sift indices stay below [len] <= capacity, hence the
     unchecked accesses (push and pop are the A* loop's biggest single
     cost).  [push] is inlined so the A* relax step never boxes its
     key. *)
  let[@inline] push h k v =
    if h.len = Array.length h.keys then grow h;
    let keys = h.keys and vals = h.vals in
    let i = ref h.len in
    h.len <- h.len + 1;
    while
      !i > 0 && Array.unsafe_get keys ((!i - 1) lsr 1) > k
    do
      let parent = (!i - 1) lsr 1 in
      Array.unsafe_set keys !i (Array.unsafe_get keys parent);
      Array.unsafe_set vals !i (Array.unsafe_get vals parent);
      i := parent
    done;
    Array.unsafe_set keys !i k;
    Array.unsafe_set vals !i v

  (* The value alone: the A* loop discards the key, and returning a
     pair would allocate on every pop.  Each sift-down step first picks
     the smaller child, the right one only if it is strictly smaller
     (a compare-to-flag, no branch), then compares it once against the
     held key.  For keys that are never NaN (A* keys are finite) that
     is the textbook step's decision — left if [l < k] and not
     [r < l], right if [r < k] and [r < l], else stop — so the layout
     and the tie order are the same, but the child choice, the
     unpredictable branch of the textbook loop, is now data flow. *)
  let pop h =
    if h.len = 0 then invalid_arg "Heap.pop: empty heap";
    let keys = h.keys and vals = h.vals in
    let v = Array.unsafe_get vals 0 in
    h.len <- h.len - 1;
    let len = h.len in
    if len > 0 then begin
      let k = Array.unsafe_get keys len and kv = Array.unsafe_get vals len in
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ && (2 * !i) + 1 < len do
        let l = (2 * !i) + 1 in
        let c =
          if l + 1 < len then
            l
            + Bool.to_int
                (Array.unsafe_get keys (l + 1) < Array.unsafe_get keys l)
          else l
        in
        if Array.unsafe_get keys c < k then begin
          Array.unsafe_set keys !i (Array.unsafe_get keys c);
          Array.unsafe_set vals !i (Array.unsafe_get vals c);
          i := c
        end
        else continue_ := false
      done;
      Array.unsafe_set keys !i k;
      Array.unsafe_set vals !i kv
    end;
    v
end

(* ------------------------------------------------------------------ *)
(* Routing state                                                       *)
(* ------------------------------------------------------------------ *)

type state = {
  cfg : config;
  nx : int;
  ny : int;
  gw : float;  (** GCell width, um *)
  gh : float;
  n_h : int;  (** H edges per tier *)
  n_v : int;
  n_edges : int;
  cap : int array;
  demand : int array;
  history : float array;
  base_cost : float array;  (** routing cost units *)
  pass_cost : float array;
      (** [base_cost.(e) *. (1. +. history.(e))], refreshed once per
          repair pass: the history term only moves between passes *)
  cost : float array;
      (** [congested_cost st e] for every edge: [pass_cost] plus the
          overflow term of the current demand.  Refreshed wherever one
          of its inputs moves — [refresh_pass_cost] (every edge),
          [apply_net] and [rip_up_net] (the edges they touch) — so an
          A* relax reads one float instead of three arrays *)
  phys_len : float array;  (** physical length, um *)
  node_tier : int array;
      (** per-node coordinate tables: the A* loop decodes every popped
          node and each of its neighbours, and the div/mod decode
          against non-constant grid dims costs more than the rest of
          the expansion — three L1-resident lookups replace it *)
  node_gy : int array;
  node_gx : int array;
}

(* The cost of committing one more net to edge [e]: the per-pass cost
   plus a penalty per unit of overflow that net would add.  [st.cost]
   caches exactly this expression, evaluated against the current
   [pass_cost] and [demand]. *)
let congested_cost st e =
  let over = st.demand.(e) + 1 - st.cap.(e) in
  st.pass_cost.(e)
  +. (if over > 0 then st.cfg.overflow_penalty *. float_of_int over else 0.)

let refresh_pass_cost st =
  for e = 0 to st.n_edges - 1 do
    st.pass_cost.(e) <- st.base_cost.(e) *. (1. +. st.history.(e));
    st.cost.(e) <- congested_cost st e
  done

let make_state cfg fp (p : Pl.t) =
  let pin_density = pin_density_bins p in
  let derate tier gy gx =
    let d = pin_density.(tier).(gy).(gx) /. cfg.pin_saturation in
    (* unbounded up to an 85 % track loss: packing far beyond the
       saturation knee keeps getting more expensive, as pin access does
       in reality *)
    Float.max 0.15 (1. -. (cfg.pin_blockage *. d))
  in
  let nx = fp.Fp.gcell_nx and ny = fp.Fp.gcell_ny in
  let n_h = ny * (nx - 1) in
  let n_v = (ny - 1) * nx in
  let n_via = ny * nx in
  let n_edges = (2 * n_h) + (2 * n_v) + n_via in
  let cap = Array.make n_edges 0 in
  let base_cost = Array.make n_edges 1. in
  let phys_len = Array.make n_edges 0. in
  let gw = Fp.gcell_w fp and gh = Fp.gcell_h fp in
  (* H edges: derated by the two bins they connect *)
  for tier = 0 to 1 do
    for gy = 0 to ny - 1 do
      for gx = 0 to nx - 2 do
        let e = (((tier * ny) + gy) * (nx - 1)) + gx in
        let f = 0.5 *. (derate tier gy gx +. derate tier gy (gx + 1)) in
        cap.(e) <- max 2 (int_of_float (Float.round (float_of_int cfg.cap_h *. f)));
        base_cost.(e) <- 1.0;
        phys_len.(e) <- gw
      done
    done
  done;
  for tier = 0 to 1 do
    for gy = 0 to ny - 2 do
      for gx = 0 to nx - 1 do
        let e = (2 * n_h) + (((tier * (ny - 1)) + gy) * nx) + gx in
        let f = 0.5 *. (derate tier gy gx +. derate tier (gy + 1) gx) in
        cap.(e) <- max 2 (int_of_float (Float.round (float_of_int cfg.cap_v *. f)));
        base_cost.(e) <- 1.0;
        phys_len.(e) <- gh
      done
    done
  done;
  for k = 0 to n_via - 1 do
    let e = (2 * n_h) + (2 * n_v) + k in
    cap.(e) <- cfg.cap_via;
    base_cost.(e) <- 0.4;
    phys_len.(e) <- 0.5 (* hybrid-bond stub *)
  done;
  let n_nodes = 2 * ny * nx in
  let node_tier = Array.make n_nodes 0 in
  let node_gy = Array.make n_nodes 0 in
  let node_gx = Array.make n_nodes 0 in
  for n = 0 to n_nodes - 1 do
    node_tier.(n) <- n / (ny * nx);
    node_gy.(n) <- n mod (ny * nx) / nx;
    node_gx.(n) <- n mod nx
  done;
  let st =
    {
      cfg; nx; ny; gw; gh; n_h; n_v; n_edges; cap;
      demand = Array.make n_edges 0;
      history = Array.make n_edges 0.;
      base_cost;
      pass_cost = Array.make n_edges 0.;
      cost = Array.make n_edges 0.;
      phys_len;
      node_tier; node_gy; node_gx;
    }
  in
  refresh_pass_cost st;
  st

let[@inline] h_edge st tier gy gx = (((tier * st.ny) + gy) * (st.nx - 1)) + gx
let[@inline] v_edge st tier gy gx = (2 * st.n_h) + (((tier * (st.ny - 1)) + gy) * st.nx) + gx
let[@inline] via_edge st gy gx = (2 * st.n_h) + (2 * st.n_v) + (gy * st.nx) + gx

let[@inline] node_of st tier gy gx = (((tier * st.ny) + gy) * st.nx) + gx
let tier_of_node st n = st.node_tier.(n)
let gy_of_node st n = st.node_gy.(n)
let gx_of_node st n = st.node_gx.(n)

(* Edges already used by the net being routed are marked with the
   current generation in [net_mark]: reuse is free because demand is
   per-net. *)
type net_marks = { mark : int array; mutable gen : int }

let make_marks st = { mark = Array.make st.n_edges (-1); gen = 0 }

(* Congestion-aware edge cost: [st.cost] holds [congested_cost]
   bit-identically (the same expression over the same inputs, evaluated
   when an input moves instead of once per query).  Unchecked accesses
   as in the tensor kernels: [e] comes from the edge-id formulas over
   in-range coordinates, and this runs ~5x per A* pop. *)
let[@inline] edge_cost st marks e =
  if Array.unsafe_get marks.mark e = marks.gen then 0.001
  else Array.unsafe_get st.cost e

(* ------------------------------------------------------------------ *)
(* Pattern routing                                                     *)
(* ------------------------------------------------------------------ *)

(* straight horizontal run on a tier: edges between x0 and x1 at gy *)
let h_run st tier gy x0 x1 acc =
  let lo = min x0 x1 and hi = max x0 x1 in
  let edges = ref acc in
  for gx = lo to hi - 1 do
    edges := h_edge st tier gy gx :: !edges
  done;
  !edges

let v_run st tier gx y0 y1 acc =
  let lo = min y0 y1 and hi = max y0 y1 in
  let edges = ref acc in
  for gy = lo to hi - 1 do
    edges := v_edge st tier gy gx :: !edges
  done;
  !edges

(* Cost of a straight run, evaluated without materializing the path. *)
let h_run_cost st marks tier gy x0 x1 =
  let lo = min x0 x1 and hi = max x0 x1 in
  let acc = ref 0. in
  for gx = lo to hi - 1 do
    acc := !acc +. edge_cost st marks (h_edge st tier gy gx)
  done;
  !acc

let v_run_cost st marks tier gx y0 y1 =
  let lo = min y0 y1 and hi = max y0 y1 in
  let acc = ref 0. in
  for gy = lo to hi - 1 do
    acc := !acc +. edge_cost st marks (v_edge st tier gy gx)
  done;
  !acc

(* A monotone same-tier candidate is fully described by its bend
   coordinate: horizontal-first through (xm, -) or vertical-first
   through (-, ym).  We score both Ls and two Zs and remember only the
   winner's descriptor. *)
type bend = H_first of int (* xm *) | V_first of int (* ym *)

let best_same_tier st marks tier (x0, y0) (x1, y1) =
  let score_h xm =
    h_run_cost st marks tier y0 x0 xm
    +. v_run_cost st marks tier xm y0 y1
    +. h_run_cost st marks tier y1 xm x1
  in
  let score_v ym =
    v_run_cost st marks tier x0 y0 ym
    +. h_run_cost st marks tier ym x0 x1
    +. v_run_cost st marks tier x1 ym y1
  in
  let best = ref (score_h x1, H_first x1) in
  let try_ cost bend = if cost < fst !best then best := (cost, bend) in
  try_ (score_h x0) (H_first x0);
  try_ (score_v y0) (V_first y0);
  try_ (score_v y1) (V_first y1);
  if abs (x1 - x0) >= 2 then begin
    let xm = (x0 + x1) / 2 in
    try_ (score_h xm) (H_first xm)
  end;
  if abs (y1 - y0) >= 2 then begin
    let ym = (y0 + y1) / 2 in
    try_ (score_v ym) (V_first ym)
  end;
  !best

let materialize_same_tier st tier (x0, y0) (x1, y1) bend acc =
  match bend with
  | H_first xm ->
      h_run st tier y0 x0 xm
        (v_run st tier xm y0 y1 (h_run st tier y1 xm x1 acc))
  | V_first ym ->
      v_run st tier x0 y0 ym
        (h_run st tier ym x0 x1 (v_run st tier x1 ym y1 acc))

let pattern_route st marks src dst =
  let t0 = tier_of_node st src and t1 = tier_of_node st dst in
  let p0 = (gx_of_node st src, gy_of_node st src) in
  let p1 = (gx_of_node st dst, gy_of_node st dst) in
  if t0 = t1 then begin
    let _, bend = best_same_tier st marks t0 p0 p1 in
    materialize_same_tier st t0 p0 p1 bend []
  end
  else begin
    (* via at source, destination, or midpoint: score each composite,
       materialize only the winner *)
    let x0, y0 = p0 and x1, y1 = p1 in
    let score (vx, vy) =
      let c0, b0 = best_same_tier st marks t0 p0 (vx, vy) in
      let c1, b1 = best_same_tier st marks t1 (vx, vy) p1 in
      (c0 +. edge_cost st marks (via_edge st vy vx) +. c1, b0, b1)
    in
    let vias = [ (x0, y0); (x1, y1); ((x0 + x1) / 2, (y0 + y1) / 2) ] in
    let best = ref None in
    List.iter
      (fun v ->
        let c, b0, b1 = score v in
        match !best with
        | Some (bc, _, _, _) when bc <= c -> ()
        | _ -> best := Some (c, v, b0, b1))
      vias;
    match !best with
    | None -> []
    | Some (_, (vx, vy), b0, b1) ->
        materialize_same_tier st t0 p0 (vx, vy) b0
          (via_edge st vy vx
          :: materialize_same_tier st t1 (vx, vy) p1 b1 [])
  end

(* ------------------------------------------------------------------ *)
(* A* maze routing                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-domain A* scratch.  One relax reads and writes a node's search
   state together, so it lives in one interleaved int array, three
   slots per node:
   - [3n]: the state word, [2 * generation] once [n] is reached in the
     current search and [2 * generation + 1] once it is closed (any
     smaller value is left over from an earlier search);
   - [3n + 1]: the parent node;
   - [3n + 2]: the parent edge.
   [gscore] stays a float array of its own (an OCaml float array is
   unboxed; an int array cannot hold the score without a conversion).
   The search's window and target live here too, so the relax step can
   read them instead of taking them as arguments. *)
type astar = {
  heap : Heap.t;
  gscore : float array;
  node : int array;  (** 3 ints per node, see above *)
  mutable generation : int;
  mutable wx0 : int;  (** search window, inclusive GCell bounds *)
  mutable wx1 : int;
  mutable wy0 : int;
  mutable wy1 : int;
  mutable tx : int;  (** target GCell *)
  mutable ty : int;
}

let make_astar st =
  let n = 2 * st.ny * st.nx in
  {
    heap = Heap.create ();
    gscore = Array.make n infinity;
    node = Array.make (3 * n) 0;
    generation = 0;
    wx0 = 0;
    wx1 = 0;
    wy0 = 0;
    wy1 = 0;
    tx = 0;
    ty = 0;
  }

(* Totals are a function of the routing problem (net order and cost
   surfaces are deterministic), so they are jobs-invariant. *)
let c_astar_pops = Obs.counter "route/astar_pops"
let c_astar_calls = Obs.counter "route/astar_calls"
let c_ripup_rounds = Obs.counter "route/ripup_rounds"
let c_ripped_nets = Obs.counter "route/ripped_nets"
let h_overflow_pass = Obs.histogram "route/overflow_per_pass"

(* Wave structure is a function of the victim set alone, so both
   histograms are jobs-invariant. *)
let h_waves_per_pass = Obs.histogram "route/waves_per_pass"
let h_wave_size = Obs.histogram "route/wave_size"

(* Warm-start accounting: nets whose previous path trees were kept
   verbatim vs nets re-traced because a pin changed its GCell.  Both
   are functions of the two binned placements alone, so they are
   jobs-invariant. *)
let c_warm_reused = Obs.counter "route/warm/reused"
let c_warm_ripped = Obs.counter "route/warm/ripped"

(* Mildly weighted A* heuristic (faster, near-optimal) for a node at
   GCell (gx, gy). *)
let[@inline] heuristic az gx gy =
  1.15 *. float_of_int (abs (gx - az.tx) + abs (gy - az.ty))

(* Relax edge [e] from the expanded node [n] to its neighbour [n'] at
   GCell (gx, gy); the caller has already checked that (gx, gy) lies in
   the search window.  Every argument is an int or a record, and the
   edge cost, the tentative score and the heap key are computed here
   and handed to the inlined [Heap.push], so no float crosses a call
   boundary and a pop allocates nothing.  A closed node can still be
   improved (the weighted heuristic is not consistent): its score and
   parents move and it is pushed again, but it stays closed.  Node and
   edge ids come from the id formulas over in-range coordinates, hence
   the unchecked accesses. *)
let relax st az marks n e n' gx gy =
  let g = Array.unsafe_get az.gscore n +. edge_cost st marks e in
  let node = az.node and open_ = 2 * az.generation in
  let s = Array.unsafe_get node (3 * n') in
  if s < open_ || g < Array.unsafe_get az.gscore n' then begin
    if s < open_ then Array.unsafe_set node (3 * n') open_;
    Array.unsafe_set az.gscore n' g;
    Array.unsafe_set node ((3 * n') + 1) n;
    Array.unsafe_set node ((3 * n') + 2) e;
    Heap.push az.heap (g +. heuristic az gx gy) n'
  end

(* The A* detour margin around a pin bounding box.  [astar_route]'s
   search window and [net_window] both take it from here: a repair wave
   is only sound if every edge a net can commit lies in its window. *)
let window_margin st = 2 + (max st.nx st.ny / 6)

let astar_route st az marks src dst =
  az.generation <- az.generation + 1;
  let open_ = 2 * az.generation in
  let closed = open_ + 1 in
  Heap.clear az.heap;
  let node_gx = st.node_gx and node_gy = st.node_gy in
  let dx1 = node_gx.(dst) and dy1 = node_gy.(dst) in
  let sx = node_gx.(src) and sy = node_gy.(src) in
  az.tx <- dx1;
  az.ty <- dy1;
  (* restrict the search to the pair's bounding box plus a detour
     margin — the standard global-router window, which caps expansion
     cost on large grids *)
  let margin = window_margin st in
  az.wx0 <- max 0 (min sx dx1 - margin);
  az.wx1 <- min (st.nx - 1) (max sx dx1 + margin);
  az.wy0 <- max 0 (min sy dy1 - margin);
  az.wy1 <- min (st.ny - 1) (max sy dy1 + margin);
  let node = az.node in
  node.(3 * src) <- open_;
  az.gscore.(src) <- 0.;
  node.((3 * src) + 1) <- -1;
  node.((3 * src) + 2) <- -1;
  Heap.push az.heap (heuristic az sx sy) src;
  let found = ref false in
  let pops = ref 0 in
  while (not !found) && not (Heap.is_empty az.heap) do
    let n = Heap.pop az.heap in
    incr pops;
    if n = dst then found := true
    else if Array.unsafe_get node (3 * n) <> closed then begin
      Array.unsafe_set node (3 * n) closed;
      (* [n] lies in the window (only window nodes are pushed), so a
         move can only leave it across the side it heads for, and the
         window sits inside the grid: one bound test per planar move,
         none for the via *)
      let t = Array.unsafe_get st.node_tier n in
      let gy = Array.unsafe_get node_gy n and gx = Array.unsafe_get node_gx n in
      if gx > az.wx0 then
        relax st az marks n (h_edge st t gy (gx - 1)) (n - 1) (gx - 1) gy;
      if gx < az.wx1 then
        relax st az marks n (h_edge st t gy gx) (n + 1) (gx + 1) gy;
      if gy > az.wy0 then
        relax st az marks n (v_edge st t (gy - 1) gx) (n - st.nx) gx (gy - 1);
      if gy < az.wy1 then
        relax st az marks n (v_edge st t gy gx) (n + st.nx) gx (gy + 1);
      relax st az marks n (via_edge st gy gx) (node_of st (1 - t) gy gx) gx gy
    end
  done;
  (* one flush per call keeps the per-pop cost to a local increment *)
  Obs.incr ~by:!pops c_astar_pops;
  Obs.incr c_astar_calls;
  if not !found then None
  else begin
    (* walk parents back to the source *)
    let edges = ref [] in
    let n = ref dst in
    while !n <> src do
      edges := node.((3 * !n) + 2) :: !edges;
      n := node.((3 * !n) + 1)
    done;
    Some !edges
  end

(* ------------------------------------------------------------------ *)
(* Net decomposition and full routing                                  *)
(* ------------------------------------------------------------------ *)

let net_nodes st (p : Pl.t) (net : Nl.net) =
  let fp = p.Pl.fp in
  let node_of_endpoint e =
    let x, y, tier = Pl.endpoint_position p e in
    let gx, gy = Fp.gcell_of fp x y in
    node_of st tier gy gx
  in
  let tbl = Hashtbl.create 8 in
  let add e =
    let n = node_of_endpoint e in
    if not (Hashtbl.mem tbl n) then Hashtbl.add tbl n ()
  in
  add net.Nl.driver;
  Array.iter add net.Nl.sinks;
  Hashtbl.fold (fun n () acc -> n :: acc) tbl []
  |> List.sort compare

(* Prim order: connect each pin GCell to the closest already-connected
   pin GCell (cheap Steiner approximation). *)
let prim_pairs st nodes =
  match nodes with
  | [] | [ _ ] -> []
  | first :: rest ->
      (* classic O(k^2) Prim: cache each remaining pin's nearest
         already-connected node and relax after every addition *)
      let dist a b =
        abs (gx_of_node st a - gx_of_node st b)
        + abs (gy_of_node st a - gy_of_node st b)
        + abs (tier_of_node st a - tier_of_node st b)
      in
      let remaining = Array.of_list rest in
      let k = Array.length remaining in
      let best_dist = Array.map (dist first) remaining in
      let best_from = Array.make k first in
      let len = ref k in
      let pairs = ref [] in
      while !len > 0 do
        let bi = ref 0 in
        for i = 1 to !len - 1 do
          if best_dist.(i) < best_dist.(!bi) then bi := i
        done;
        let r = remaining.(!bi) in
        pairs := (best_from.(!bi), r) :: !pairs;
        remaining.(!bi) <- remaining.(!len - 1);
        best_dist.(!bi) <- best_dist.(!len - 1);
        best_from.(!bi) <- best_from.(!len - 1);
        decr len;
        for i = 0 to !len - 1 do
          let d = dist r remaining.(i) in
          if d < best_dist.(i) then begin
            best_dist.(i) <- d;
            best_from.(i) <- r
          end
        done
      done;
      List.rev !pairs

(* Routing a net touches shared state in two phases: [trace_net]
   computes the net's deduplicated edge set reading (but never writing)
   [st.demand], and [apply_net] / [rip_up_net] commit or retract the
   demand deltas and keep the edge→net incidence index in sync.  The
   split is what lets a repair wave route window-disjoint nets
   concurrently and still commit in fixed net order.

   Note that deferring the demand writes cannot change a net's own
   routing: edges the net has already committed are generation-marked,
   and marked edges cost a flat 0.001 regardless of demand, so a net
   never observes its own increments. *)

(* Unordered growable int bag — the per-edge incidence set.  Swap
   removal keeps both maintenance directions allocation-free on the
   hot rip-up/commit path (victim collection sorts, so the order in a
   bag never reaches a result). *)
type bag = { mutable data : int array; mutable len : int }

let bag_add b k =
  if b.len = Array.length b.data then begin
    let d = Array.make (max 4 (2 * b.len)) 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- k;
  b.len <- b.len + 1

let bag_remove b k =
  let i = ref 0 in
  while b.data.(!i) <> k do
    incr i
  done;
  b.len <- b.len - 1;
  b.data.(!i) <- b.data.(b.len)

let apply_net st idx k path =
  Array.iter
    (fun e ->
      st.demand.(e) <- st.demand.(e) + 1;
      st.cost.(e) <- congested_cost st e;
      bag_add idx.(e) k)
    path

let rip_up_net st idx k path =
  Array.iter
    (fun e ->
      st.demand.(e) <- st.demand.(e) - 1;
      st.cost.(e) <- congested_cost st e;
      bag_remove idx.(e) k)
    path

(* Two-pin decomposition of a net's pin GCells.  Same-tier nets with a
   handful of pins get a rectilinear Steiner topology (shorter trees);
   cross-tier and large nets fall back to Prim order. *)
let decompose st nodes =
  match nodes with
  | [] | [ _ ] -> []
  | first :: rest ->
      let tier0 = tier_of_node st first in
      let same_tier = List.for_all (fun n -> tier_of_node st n = tier0) rest in
      let k = List.length nodes in
      if same_tier && k >= 3 && k <= 10 then begin
        let pins =
          List.map
            (fun n -> { Steiner.x = gx_of_node st n; y = gy_of_node st n })
            nodes
        in
        List.map
          (fun (a, b) ->
            (node_of st tier0 a.Steiner.y a.Steiner.x,
             node_of st tier0 b.Steiner.y b.Steiner.x))
          (Steiner.build pins)
      end
      else prim_pairs st nodes

(* Per-domain routing scratch: the A* state, heap and net marks are
   mutable and net-sized, so each domain executing repair-wave chunks
   owns its own set (all fields are generation-stamped — a reused
   scratch can never leak state into a result). *)
type scratch = { az : astar; marks : net_marks }

let make_scratch st = { az = make_astar st; marks = make_marks st }

(* Route one net against the current demand without mutating anything
   shared; returns the deduplicated edge array in discovery order. *)
let trace_net st sc ~maze (p : Pl.t) net =
  let marks = sc.marks in
  marks.gen <- marks.gen + 1;
  let nodes = net_nodes st p net in
  let pairs = decompose st nodes in
  let acc = ref [] and n = ref 0 in
  List.iter
    (fun (a, b) ->
      let path =
        if maze then
          match astar_route st sc.az marks a b with
          | Some path -> path
          | None -> pattern_route st marks a b
        else pattern_route st marks a b
      in
      List.iter
        (fun e ->
          if marks.mark.(e) <> marks.gen then begin
            marks.mark.(e) <- marks.gen;
            acc := e :: !acc;
            incr n
          end)
        path)
    pairs;
  let arr = Array.make !n (-1) in
  List.iteri (fun i e -> arr.(!n - 1 - i) <- e) !acc;
  arr

let overflow_of st e = max 0 (st.demand.(e) - st.cap.(e))

(* ------------------------------------------------------------------ *)
(* Repair waves                                                        *)
(* ------------------------------------------------------------------ *)

(* A net's search window: its pin-GCell bounding box plus the A* detour
   margin ([window_margin], as in [astar_route]).  Every edge the net
   can ever commit — pattern or maze, any pass — has both endpoints
   inside the window, so two nets with disjoint windows never read or
   write the same edge.  That independence relation is what a repair
   wave exploits. *)
let net_window st fp (p : Pl.t) net =
  let x0 = ref max_int and y0 = ref max_int in
  let x1 = ref min_int and y1 = ref min_int in
  let add e =
    let x, y, _ = Pl.endpoint_position p e in
    let gx, gy = Fp.gcell_of fp x y in
    if gx < !x0 then x0 := gx;
    if gx > !x1 then x1 := gx;
    if gy < !y0 then y0 := gy;
    if gy > !y1 then y1 := gy
  in
  add net.Nl.driver;
  Array.iter add net.Nl.sinks;
  let margin = window_margin st in
  ( max 0 (!x0 - margin),
    max 0 (!y0 - margin),
    min (st.nx - 1) (!x1 + margin),
    min (st.ny - 1) (!y1 + margin) )

(* Greedy first-fit partition of the victim list into waves of pairwise
   window-disjoint nets.  A pure function of the victim order and the
   windows — never of DCO3D_JOBS — so the wave structure, and with it
   the routing result, is identical at any job count (executing a wave
   concurrently is equivalent to executing it sequentially, precisely
   because its members touch disjoint edge sets). *)
type wave_acc = {
  mutable rects : int array;  (** 4 ints (x0 y0 x1 y1) per member *)
  mutable members : int array;
  mutable n : int;
}

let partition_waves windows victims =
  let nv = List.length victims in
  let waves =
    Array.init (max 1 nv) (fun _ -> { rects = [||]; members = [||]; n = 0 })
  in
  let n_waves = ref 0 in
  List.iter
    (fun k ->
      let x0, y0, x1, y1 = windows.(k) in
      (* first wave whose members' windows all miss this one; the scan
         is flat int comparisons, no allocation *)
      let w = ref 0 in
      let placed = ref false in
      while not !placed do
        if !w = !n_waves then begin
          incr n_waves;
          placed := true
        end
        else begin
          let wv = waves.(!w) in
          let r = wv.rects in
          let n4 = 4 * wv.n in
          let conflict = ref false in
          let i = ref 0 in
          while (not !conflict) && !i < n4 do
            if
              x0 <= r.(!i + 2) && r.(!i) <= x1 && y0 <= r.(!i + 3)
              && r.(!i + 1) <= y1
            then conflict := true
            else i := !i + 4
          done;
          if !conflict then incr w else placed := true
        end
      done;
      let wv = waves.(!w) in
      if 4 * wv.n = Array.length wv.rects then begin
        let cap = max 4 (2 * wv.n) in
        let rects = Array.make (4 * cap) 0 and members = Array.make cap 0 in
        Array.blit wv.rects 0 rects 0 (4 * wv.n);
        Array.blit wv.members 0 members 0 wv.n;
        wv.rects <- rects;
        wv.members <- members
      end;
      let b = 4 * wv.n in
      wv.rects.(b) <- x0;
      wv.rects.(b + 1) <- y0;
      wv.rects.(b + 2) <- x1;
      wv.rects.(b + 3) <- y1;
      wv.members.(wv.n) <- k;
      wv.n <- wv.n + 1)
    victims;
  Array.init !n_waves (fun w -> Array.sub waves.(w).members 0 waves.(w).n)

(* Per-endpoint GCell bins of a net, in endpoint order (driver first,
   then sinks in netlist order).  Together with the netlist and the
   config these fully determine the routing result: every quantity the
   router reads off the placement — pin densities, pin nodes, search
   windows, sort keys — is a function of the bins, never of sub-GCell
   coordinates.  The warm-start dirty test and the route cache key both
   rest on that property. *)
let endpoint_bins (p : Pl.t) (net : Nl.net) =
  let fp = p.Pl.fp in
  let bin e =
    let x, y, tier = Pl.endpoint_position p e in
    let gx, gy = Fp.gcell_of fp x y in
    (gx, gy, tier)
  in
  let n_sinks = Array.length net.Nl.sinks in
  Array.init (n_sinks + 1) (fun i ->
      if i = 0 then bin net.Nl.driver else bin net.Nl.sinks.(i - 1))

let route ?config ?(validate = false) ?warm_start (p : Pl.t) =
  Obs.with_span "route" @@ fun () ->
  let fp = p.Pl.fp in
  let cfg = match config with Some c -> c | None -> default_config fp in
  let st = make_state cfg fp p in
  let nets = Array.of_list (Nl.signal_nets p.Pl.nl) in
  let n_nets = Array.length nets in
  let bins = Array.map (endpoint_bins p) nets in
  (* small nets first: they have the least routing freedom.  The keys
     are the GCell-quantized half-perimeters with the net index as
     tie-break — a total order, so the sort is deterministic (the
     library sort is not stable) and insensitive to sub-GCell jitter,
     which is what lets a cache key ignore exact coordinates. *)
  let order = Array.init n_nets Fun.id in
  let half_perim =
    Array.map
      (fun bs ->
        let x0 = ref max_int and y0 = ref max_int in
        let x1 = ref min_int and y1 = ref min_int in
        Array.iter
          (fun (gx, gy, _) ->
            if gx < !x0 then x0 := gx;
            if gx > !x1 then x1 := gx;
            if gy < !y0 then y0 := gy;
            if gy > !y1 then y1 := gy)
          bs;
        !x1 - !x0 + (!y1 - !y0))
      bins
  in
  Array.sort
    (fun a b ->
      let c = compare half_perim.(a) half_perim.(b) in
      if c <> 0 then c else compare a b)
    order;
  (* Warm start: a net is clean iff every endpoint stayed in its GCell.
     An all-clean placement has identical pin densities (hence
     capacities), sort keys and traces, so the previous result is the
     cold result and is returned verbatim. *)
  let keep =
    match warm_start with
    | None -> None
    | Some (prev, prev_p) ->
        if Array.length prev.net_edges <> n_nets then
          invalid_arg "Router.route: warm_start from a different netlist";
        let pfp = prev_p.Pl.fp in
        if
          pfp.Fp.gcell_nx <> fp.Fp.gcell_nx
          || pfp.Fp.gcell_ny <> fp.Fp.gcell_ny
        then invalid_arg "Router.route: warm_start from a different grid";
        if prev.config <> cfg then
          invalid_arg "Router.route: warm_start under a different config";
        let clean =
          Array.init n_nets (fun k ->
              endpoint_bins prev_p nets.(k) = bins.(k))
        in
        Some (prev, clean)
  in
  match keep with
  | Some (prev, clean) when Array.for_all Fun.id clean ->
      Obs.incr ~by:n_nets c_warm_reused;
      prev
  | _ ->
  let spool = Pool.scratch_pool (fun () -> make_scratch st) in
  (* edge→net incidence: which nets currently commit each edge.  Kept
     in sync by [apply_net]/[rip_up_net] so each repair pass collects
     its victims from the overflowed edges alone instead of scanning
     every net's full edge list. *)
  let idx = Array.init st.n_edges (fun _ -> { data = [||]; len = 0 }) in
  let net_edges = Array.make n_nets [||] in
  Obs.with_span "initial" (fun () ->
      match keep with
      | None ->
          Pool.with_scratch spool (fun sc ->
              Array.iter
                (fun k ->
                  let path = trace_net st sc ~maze:false p nets.(k) in
                  net_edges.(k) <- path;
                  apply_net st idx k path)
                order)
      | Some (prev, clean) ->
          (* carry the negotiated history forward so repair resumes
             from the prior run's costs instead of rediscovering them *)
          Array.iteri
            (fun e h -> st.history.(e) <- 0.25 *. h)
            prev.history;
          refresh_pass_cost st;
          let reused = ref 0 and ripped = ref 0 in
          Array.iter
            (fun k ->
              if clean.(k) then begin
                incr reused;
                net_edges.(k) <- prev.net_edges.(k);
                apply_net st idx k prev.net_edges.(k)
              end)
            order;
          (* dirty nets re-trace sequentially in sort order against the
             kept demand — congestion-aware (maze) rather than the cold
             pass's blind pattern route, so they steer around the kept
             paths instead of manufacturing overflow the repair waves
             would then have to undo.  Sequential in a fixed order, so
             the result stays jobs-invariant.  Kept paths crossing edges
             the new demand pushes past their baseline are still ripped
             up by the repair waves below. *)
          Pool.with_scratch spool (fun sc ->
              Array.iter
                (fun k ->
                  if not clean.(k) then begin
                    incr ripped;
                    let path = trace_net st sc ~maze:true p nets.(k) in
                    net_edges.(k) <- path;
                    apply_net st idx k path
                  end)
                order);
          Obs.incr ~by:!reused c_warm_reused;
          Obs.incr ~by:!ripped c_warm_ripped);
  (* negotiated-congestion repair: each pass bumps history, collects
     the victim nets, partitions them into waves of window-disjoint
     nets, and routes each wave's nets concurrently against a frozen
     demand surface — deltas commit in fixed net order afterwards, so
     the result is bit-identical at DCO3D_JOBS=1 and N *)
  let windows = Array.map (net_window st fp p) nets in
  let seen = Array.make n_nets (-1) in
  (* Incremental runs stop negotiating once overflow is clearly at or
     below the warm-start's converged residual: the prior result
     already spent its whole repair budget to reach that level, so
     further waves would re-negotiate paths the placement delta never
     touched.  The floor sits slightly *under* the residual (0.95x)
     because the cold re-route of the perturbed placement — the parity
     reference of the incremental contract (bench gate,
     `route --warm-check`) — can come out a little better than the
     warm start when the perturbation eases congestion; stopping at
     1.0x could strand the warm result outside the 5% parity band.
     Cold runs keep the floor at 0 (repair until clean or out of
     budget). *)
  let overflow_floor =
    match keep with
    | Some (prev, _) -> int_of_float (0.95 *. float_of_int prev.overflow_total)
    | None -> 0
  in
  (* Per-edge overflow the warm start had already accepted (its demand
     replayed against this run's capacities).  Warm repair only rips
     nets crossing edges that got *worse* than this baseline — residual
     congestion far from the placement delta keeps its negotiated
     paths.  Empty for cold runs: every overflowed edge collects. *)
  let baseline_ov =
    match keep with
    | None -> [||]
    | Some (prev, _) ->
        let d = Array.make st.n_edges 0 in
        Array.iter (Array.iter (fun e -> d.(e) <- d.(e) + 1)) prev.net_edges;
        Array.mapi (fun e de -> max 0 (de - st.cap.(e))) d
  in
  let iterations_run = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iterations_run < cfg.max_iterations do
    incr iterations_run;
    Obs.with_span (Printf.sprintf "repair:%d" !iterations_run) (fun () ->
    (* bump history on overflowed edges, collecting the nets that
       cross them in the same sweep *)
    let total_overflow = ref 0 in
    let victims = ref [] and n_victims = ref 0 in
    let pass = !iterations_run in
    for e = 0 to st.n_edges - 1 do
      let ov = overflow_of st e in
      if ov > 0 then begin
        total_overflow := !total_overflow + ov;
        st.history.(e) <- st.history.(e) +. (cfg.history_weight *. float_of_int ov);
        (* The warm baseline protection decays to nothing on the final
           pass: if the placement delta genuinely eased congestion,
           a full-collection last pass lets negotiation reach the cold
           route's quality instead of locking in a stale residual.
           Earlier passes stay cheap — only edges *worse* than the
           baseline collect victims. *)
        let protected_ =
          Array.length baseline_ov > 0 && pass < cfg.max_iterations
        in
        if (not protected_) || ov > baseline_ov.(e) then begin
          let b = idx.(e) in
          for j = 0 to b.len - 1 do
            let k = b.data.(j) in
            if seen.(k) <> pass then begin
              seen.(k) <- pass;
              incr n_victims;
              victims := k :: !victims
            end
          done
        end
      end
    done;
    refresh_pass_cost st;
    if Obs.enabled () then
      Obs.observe h_overflow_pass (float_of_int !total_overflow);
    if !total_overflow <= overflow_floor || !n_victims = 0 then
      continue_ := false
    else begin
      (* rip up and reroute every net crossing an overflowed edge *)
      Obs.incr c_ripup_rounds;
      Obs.incr ~by:!n_victims c_ripped_nets;
      let victims = List.sort (fun a b -> compare b a) !victims in
      let waves = Obs.with_span "partition" (fun () -> partition_waves windows victims) in
      if Obs.enabled () then begin
        Obs.observe h_waves_per_pass (float_of_int (Array.length waves));
        Array.iter
          (fun w -> Obs.observe h_wave_size (float_of_int (Array.length w)))
          waves
      end;
      Obs.with_span "waves" (fun () -> Array.iter
        (fun wave ->
          Array.iter (fun k -> rip_up_net st idx k net_edges.(k)) wave;
          let paths = Array.make (Array.length wave) [||] in
          Pool.parallel_for ~chunk:1 0 (Array.length wave) (fun i ->
              Pool.with_scratch spool (fun sc ->
                  paths.(i) <- trace_net st sc ~maze:true p nets.(wave.(i))));
          Array.iteri
            (fun i k ->
              net_edges.(k) <- paths.(i);
              apply_net st idx k paths.(i))
            wave)
        waves)
    end)
  done;
  if validate then begin
    (* conservation: demand must equal the per-edge sum over committed
       paths (and the incidence index must agree); and the cost cache
       must hold, bit for bit, what [congested_cost] recomputes *)
    let expect = Array.make st.n_edges 0 in
    Array.iter (Array.iter (fun e -> expect.(e) <- expect.(e) + 1)) net_edges;
    for e = 0 to st.n_edges - 1 do
      if expect.(e) <> st.demand.(e) then
        failwith
          (Printf.sprintf
             "Router.route: demand conservation violated at edge %d: demand \
              %d, committed %d"
             e st.demand.(e) expect.(e));
      if idx.(e).len <> expect.(e) then
        failwith
          (Printf.sprintf
             "Router.route: incidence index inconsistent at edge %d: %d nets \
              indexed, %d committed"
             e idx.(e).len expect.(e));
      let fresh = congested_cost st e in
      if
        not
          (Int64.equal
             (Int64.bits_of_float st.cost.(e))
             (Int64.bits_of_float fresh))
      then
        failwith
          (Printf.sprintf
             "Router.route: cached cost stale at edge %d: cached %h, \
              recomputed %h"
             e st.cost.(e) fresh)
    done
  end;
  (* ---------------- results ---------------- *)
  let overflow_h = ref 0 and overflow_v = ref 0 and overflow_via = ref 0 in
  for e = 0 to st.n_edges - 1 do
    let ov = overflow_of st e in
    if ov > 0 then
      if e < 2 * st.n_h then overflow_h := !overflow_h + ov
      else if e < (2 * st.n_h) + (2 * st.n_v) then overflow_v := !overflow_v + ov
      else overflow_via := !overflow_via + ov
  done;
  let congestion =
    Array.init 2 (fun tier ->
        let m = T.zeros [| st.ny; st.nx |] in
        (* attribute each edge's overflow to its low-side GCell *)
        for gy = 0 to st.ny - 1 do
          for gx = 0 to st.nx - 2 do
            let ov = overflow_of st (h_edge st tier gy gx) in
            if ov > 0 then T.set2 m gy gx (T.get2 m gy gx +. float_of_int ov)
          done
        done;
        for gy = 0 to st.ny - 2 do
          for gx = 0 to st.nx - 1 do
            let ov = overflow_of st (v_edge st tier gy gx) in
            if ov > 0 then T.set2 m gy gx (T.get2 m gy gx +. float_of_int ov)
          done
        done;
        m)
  in
  let utilization =
    Array.init 2 (fun tier ->
        let m = T.zeros [| st.ny; st.nx |] in
        for gy = 0 to st.ny - 1 do
          for gx = 0 to st.nx - 1 do
            let u = ref 0. and k = ref 0 in
            let edge e =
              u := !u +. (float_of_int st.demand.(e) /. float_of_int (max 1 st.cap.(e)));
              incr k
            in
            if gx < st.nx - 1 then edge (h_edge st tier gy gx);
            if gx > 0 then edge (h_edge st tier gy (gx - 1));
            if gy < st.ny - 1 then edge (v_edge st tier gy gx);
            if gy > 0 then edge (v_edge st tier (gy - 1) gx);
            T.set2 m gy gx (!u /. float_of_int (max 1 !k))
          done
        done;
        m)
  in
  let overflow_cells = ref 0 in
  for tier = 0 to 1 do
    T.iteri_flat
      (fun _ v -> if v > 0. then incr overflow_cells)
      congestion.(tier)
  done;
  let total_cells = 2 * st.nx * st.ny in
  let net_length = Array.make (Nl.n_nets p.Pl.nl) 0. in
  let wirelength = ref 0. in
  Array.iteri
    (fun k edges ->
      let len = Array.fold_left (fun acc e -> acc +. st.phys_len.(e)) 0. edges in
      (* single-GCell nets still have a local stub *)
      let len = if len = 0. then 0.5 *. (st.gw +. st.gh) else len in
      net_length.(nets.(k).Nl.net_id) <- len;
      wirelength := !wirelength +. len)
    net_edges;
  {
    overflow_total = !overflow_h + !overflow_v + !overflow_via;
    overflow_h = !overflow_h;
    overflow_v = !overflow_v;
    overflow_via = !overflow_via;
    overflow_gcell_pct = 100. *. float_of_int !overflow_cells /. float_of_int total_cells;
    wirelength = !wirelength;
    congestion;
    utilization;
    net_length;
    iterations_run = !iterations_run;
    net_edges;
    history = st.history;
    config = cfg;
  }

(* Content digest of everything a routing result asserts: overflow
   totals, wirelength, per-net lengths and the congestion/utilization
   maps.  Used by the determinism tests and the bench gate to compare
   runs across DCO3D_JOBS values bit-for-bit. *)
let digest (r : result) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d %d %.17g %.17g %d" r.overflow_total r.overflow_h
       r.overflow_v r.overflow_via r.overflow_gcell_pct r.wirelength
       r.iterations_run);
  Array.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf " %.17g" l))
    r.net_length;
  let add_maps ms =
    Array.iter
      (fun m ->
        Buffer.add_string buf
          (Marshal.to_string
             (T.shape m, Array.init (T.numel m) (T.get_flat m))
             []))
      ms
  in
  add_maps r.congestion;
  add_maps r.utilization;
  Digest.to_hex (Digest.string (Buffer.contents buf))
