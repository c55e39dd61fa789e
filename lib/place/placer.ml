module Nl = Dco3d_netlist.Netlist
module Cl = Dco3d_netlist.Cell_lib
module Rng = Dco3d_tensor.Rng
module Linalg = Dco3d_tensor.Linalg
module Obs = Dco3d_obs.Obs

(* ------------------------------------------------------------------ *)
(* Quadratic placement                                                 *)
(* ------------------------------------------------------------------ *)

(* The connectivity Laplacian is never materialized: we keep flat edge
   arrays and implement the CG matvec directly over them.  Nets with at
   most 4 pins expand to cliques, larger nets get a star node (an extra
   variable) — the standard hybrid model. *)
type qp_system = {
  n_vars : int;  (** cells + star nodes *)
  e_i : int array;
  e_j : int array;
  e_w : float array;
  (* edges to fixed terminals (IO pads): variable, weight, coordinate *)
  f_i : int array;
  f_w : float array;
  f_x : float array;
  f_y : float array;
}

let build_system (p : Placement.t) =
  let nl = p.nl in
  let n = Nl.n_cells nl in
  let e_i = ref [] and e_j = ref [] and e_w = ref [] in
  let f_i = ref [] and f_w = ref [] and f_x = ref [] and f_y = ref [] in
  let n_vars = ref n in
  let add_edge a b w =
    match (a, b) with
    | `Var i, `Var j ->
        e_i := i :: !e_i;
        e_j := j :: !e_j;
        e_w := w :: !e_w
    | `Var i, `Fix (x, y) | `Fix (x, y), `Var i ->
        f_i := i :: !f_i;
        f_w := w :: !f_w;
        f_x := x :: !f_x;
        f_y := y :: !f_y
    | `Fix _, `Fix _ -> ()
  in
  let node_of = function
    | Nl.Cell c -> `Var c
    | Nl.Io i -> `Fix (p.Placement.io_x.(i), p.Placement.io_y.(i))
  in
  List.iter
    (fun (net : Nl.net) ->
      let pins = Array.append [| net.Nl.driver |] net.Nl.sinks in
      let deg = Array.length pins in
      if deg >= 2 then
        if deg <= 4 then begin
          let w = 1. /. float_of_int (deg - 1) in
          for a = 0 to deg - 2 do
            for b = a + 1 to deg - 1 do
              add_edge (node_of pins.(a)) (node_of pins.(b)) w
            done
          done
        end
        else begin
          let star = !n_vars in
          incr n_vars;
          let w = float_of_int deg /. float_of_int (deg - 1) /. 2. in
          Array.iter (fun pin -> add_edge (`Var star) (node_of pin) w) pins
        end)
    (Nl.signal_nets nl);
  {
    n_vars = !n_vars;
    e_i = Array.of_list !e_i;
    e_j = Array.of_list !e_j;
    e_w = Array.of_list !e_w;
    f_i = Array.of_list !f_i;
    f_w = Array.of_list !f_w;
    f_x = Array.of_list !f_x;
    f_y = Array.of_list !f_y;
  }

(* CG iteration totals are jobs-invariant: the solve is sequential and
   its trajectory depends only on the system being solved. *)
let c_cg_iters = Obs.counter "place/cg_iters"
let c_cg_solves = Obs.counter "place/cg_solves"

(* Terminal-status counters: every solve bumps exactly one of these, so
   a non-zero place/cg_breakdowns is distinguishable from solves that
   merely hit the iteration budget. *)
let c_cg_converged = Obs.counter "place/cg_converged"
let c_cg_max_iter = Obs.counter "place/cg_max_iter"
let c_cg_breakdowns = Obs.counter "place/cg_breakdowns"

let count_cg_status = function
  | Linalg.Converged -> Obs.incr c_cg_converged
  | Linalg.Max_iter -> Obs.incr c_cg_max_iter
  | Linalg.Breakdown -> Obs.incr c_cg_breakdowns

(* One QP solve against a prebuilt [sys]: the edge and terminal arrays
   depend only on the netlist and the IO pads, so [global_place] builds
   them once and every round re-solves with new anchors. *)
let solve_qp sys ~anchor_weight ~anchors ~cg_iters (p : Placement.t) =
  let nl = p.nl in
  let n = Nl.n_cells nl in
  let nv = sys.n_vars in
  let cx = p.Placement.fp.Floorplan.width /. 2. in
  let cy = p.Placement.fp.Floorplan.height /. 2. in
  (* weak pull to the die center keeps the system strictly PD even for
     floating subgraphs *)
  let eps = 1e-4 in
  let diag = Array.make nv eps in
  let ne = Array.length sys.e_i in
  for k = 0 to ne - 1 do
    diag.(sys.e_i.(k)) <- diag.(sys.e_i.(k)) +. sys.e_w.(k);
    diag.(sys.e_j.(k)) <- diag.(sys.e_j.(k)) +. sys.e_w.(k)
  done;
  let nf = Array.length sys.f_i in
  for k = 0 to nf - 1 do
    diag.(sys.f_i.(k)) <- diag.(sys.f_i.(k)) +. sys.f_w.(k)
  done;
  (match anchors with
  | Some _ ->
      for c = 0 to n - 1 do
        diag.(c) <- diag.(c) +. anchor_weight
      done
  | None -> ());
  let matvec v out =
    for i = 0 to nv - 1 do
      out.(i) <- diag.(i) *. v.(i)
    done;
    for k = 0 to ne - 1 do
      let i = sys.e_i.(k) and j = sys.e_j.(k) and w = sys.e_w.(k) in
      out.(i) <- out.(i) -. (w *. v.(j));
      out.(j) <- out.(j) -. (w *. v.(i))
    done
  in
  let solve_axis fixed_coord anchor_coord init =
    let b = Array.make nv 0. in
    for i = 0 to nv - 1 do
      b.(i) <- eps *. (if fixed_coord == sys.f_x then cx else cy)
    done;
    for k = 0 to nf - 1 do
      b.(sys.f_i.(k)) <- b.(sys.f_i.(k)) +. (sys.f_w.(k) *. fixed_coord.(k))
    done;
    (match anchors with
    | Some _ ->
        for c = 0 to n - 1 do
          b.(c) <- b.(c) +. (anchor_weight *. anchor_coord.(c))
        done
    | None -> ());
    Obs.with_span "cg_solve" (fun () ->
        let iters = ref 0 in
        let status = ref Linalg.Converged in
        let x =
          Linalg.conjugate_gradient ~max_iter:cg_iters ~tol:1e-6
            ~iterations_out:iters ~status_out:status matvec b init
        in
        Obs.incr c_cg_solves;
        Obs.incr ~by:!iters c_cg_iters;
        count_cg_status !status;
        x)
  in
  let ax, ay =
    match anchors with Some (ax, ay) -> (ax, ay) | None -> ([||], [||])
  in
  let init_x = Array.make nv cx and init_y = Array.make nv cy in
  Array.blit p.Placement.x 0 init_x 0 n;
  Array.blit p.Placement.y 0 init_y 0 n;
  let xs = solve_axis sys.f_x ax init_x in
  let ys = solve_axis sys.f_y ay init_y in
  Array.blit xs 0 p.Placement.x 0 n;
  Array.blit ys 0 p.Placement.y 0 n;
  Placement.clamp_to_die p

let quadratic_place ?(anchor_weight = 0.) ?anchors ?(cg_iters = 60)
    (p : Placement.t) =
  solve_qp (build_system p) ~anchor_weight ~anchors ~cg_iters p

(* ------------------------------------------------------------------ *)
(* Spreading                                                           *)
(* ------------------------------------------------------------------ *)

let c_spread_iters = Obs.counter "place/spread_iters"

(* Per-bin utilization of one tier into the flat row-major [u]
   ([ny * nx]), from per-cell effective areas [area].  Cells are
   summed in index order. *)
let fill_utilization (p : Placement.t) ~tier ~nx ~ny ~bw ~bh area u =
  Array.fill u 0 (nx * ny) 0.;
  for c = 0 to Array.length area - 1 do
    if p.Placement.tier.(c) = tier then begin
      let gx =
        max 0 (min (nx - 1) (int_of_float (p.Placement.x.(c) /. bw)))
      in
      let gy =
        max 0 (min (ny - 1) (int_of_float (p.Placement.y.(c) /. bh)))
      in
      let k = (gy * nx) + gx in
      u.(k) <- u.(k) +. area.(c)
    end
  done;
  let bin_area = bw *. bh in
  for k = 0 to (nx * ny) - 1 do
    u.(k) <- u.(k) /. bin_area
  done

(* Utilization-proportional 1-D stretching of one lane of bins: crowded
   bins widen, empty bins shrink; cell coordinates remap linearly within
   their bin.  [relief] controls gentleness (larger = gentler).  On
   entry [weights.(0 .. n_bins - 1)] holds the lane's utilizations; the
   lane's cells are [cells.(lo .. hi - 1)].  Each cell's move depends
   only on its own coordinate, so the order of [cells] is free. *)
let stretch_lane ~extent ~n_bins ~relief weights new_left coords cells lo hi
    damping =
  let total = extent in
  let wsum = ref 0. in
  for i = 0 to n_bins - 1 do
    weights.(i) <- weights.(i) +. relief;
    wsum := !wsum +. weights.(i)
  done;
  let wsum = !wsum in
  if wsum > 0. then begin
    new_left.(0) <- 0.;
    for i = 0 to n_bins - 1 do
      new_left.(i + 1) <- new_left.(i) +. (weights.(i) /. wsum *. total)
    done;
    let bin_w = extent /. float_of_int n_bins in
    for k = lo to hi - 1 do
      let c = cells.(k) in
      let x = coords.(c) in
      let b = max 0 (min (n_bins - 1) (int_of_float (x /. bin_w))) in
      let t = (x -. (float_of_int b *. bin_w)) /. bin_w in
      let t = Float.max 0. (Float.min 1. t) in
      let mapped = new_left.(b) +. (t *. (new_left.(b + 1) -. new_left.(b))) in
      coords.(c) <- x +. (damping *. (mapped -. x))
    done
  end

(* Counting sort of one tier's cells into lanes: afterwards lane [l]'s
   cells are [cells.(start.(l) .. start.(l + 1) - 1)].  [lane.(c)] holds
   each cell's lane (-1 for other tiers); [start] has [n_lanes + 2]
   slots, the last used as scratch by the fill pass. *)
let bucket_lanes lane ~n_lanes start cells =
  Array.fill start 0 (n_lanes + 2) 0;
  Array.iter (fun l -> if l >= 0 then start.(l + 2) <- start.(l + 2) + 1) lane;
  for l = 2 to n_lanes + 1 do
    start.(l) <- start.(l) + start.(l - 1)
  done;
  (* start.(l + 1) is now lane l's first slot: fill through it, which
     leaves start.(l + 1) at lane l's end = lane (l + 1)'s start *)
  Array.iteri
    (fun c l ->
      if l >= 0 then begin
        cells.(start.(l + 1)) <- c;
        start.(l + 1) <- start.(l + 1) + 1
      end)
    lane

let spread ?(iterations = 16) ?(damping = 0.6) ~target_density ~inflation
    (p : Placement.t) =
  let fp = p.Placement.fp in
  let nx = fp.Floorplan.gcell_nx and ny = fp.Floorplan.gcell_ny in
  let bw = fp.Floorplan.width /. float_of_int nx in
  let bh = fp.Floorplan.height /. float_of_int ny in
  let n = Nl.n_cells p.nl in
  let target = Float.max 0.2 target_density in
  (* deterministic sub-bin jitter so coincident cells (e.g. a fresh
     all-at-center placement) can separate — the lane remap is a pure
     function of the coordinate and would otherwise keep ties forever *)
  for c = 0 to n - 1 do
    let h = (c * 2654435761) land 0xFFFF in
    let jx = (float_of_int (h land 0xFF) /. 255.) -. 0.5 in
    let jy = (float_of_int ((h lsr 8) land 0xFF) /. 255.) -. 0.5 in
    p.Placement.x.(c) <- p.Placement.x.(c) +. (0.02 *. bw *. jx);
    p.Placement.y.(c) <- p.Placement.y.(c) +. (0.02 *. bh *. jy)
  done;
  (* effective (inflated) cell areas, and every buffer the iterations
     reuse *)
  let area =
    Array.init n (fun c ->
        let a = Nl.cell_area p.nl c in
        match inflation with None -> a | Some f -> a *. f.(c))
  in
  let u = Array.make (nx * ny) 0. in
  let lanes = max nx ny in
  let weights = Array.make lanes 0. and new_left = Array.make (lanes + 1) 0. in
  let row_of = Array.make n (-1) and col_of = Array.make n (-1) in
  let row_start = Array.make (ny + 2) 0 and col_start = Array.make (nx + 2) 0 in
  let row_cells = Array.make n 0 and col_cells = Array.make n 0 in
  let relief = 0.75 *. target in
  for tier = 0 to Floorplan.n_tiers - 1 do
    let iter = ref 0 in
    let go = ref true in
    while !go && !iter < iterations do
      incr iter;
      fill_utilization p ~tier ~nx ~ny ~bw ~bh area u;
      let peak = ref 0. in
      for k = 0 to (nx * ny) - 1 do
        peak := Float.max !peak u.(k)
      done;
      if !peak <= target *. 1.05 then go := false
      else begin
        Obs.incr c_spread_iters;
        (* bucket cells by row lane (for x stretch) and column lane,
           both from the coordinates before this iteration moves them *)
        for c = 0 to n - 1 do
          if p.Placement.tier.(c) = tier then begin
            row_of.(c) <-
              max 0 (min (ny - 1) (int_of_float (p.Placement.y.(c) /. bh)));
            col_of.(c) <-
              max 0 (min (nx - 1) (int_of_float (p.Placement.x.(c) /. bw)))
          end
          else begin
            row_of.(c) <- -1;
            col_of.(c) <- -1
          end
        done;
        bucket_lanes row_of ~n_lanes:ny row_start row_cells;
        bucket_lanes col_of ~n_lanes:nx col_start col_cells;
        for gy = 0 to ny - 1 do
          Array.blit u (gy * nx) weights 0 nx;
          stretch_lane ~extent:fp.Floorplan.width ~n_bins:nx ~relief weights
            new_left p.Placement.x row_cells row_start.(gy)
            row_start.(gy + 1) damping
        done;
        fill_utilization p ~tier ~nx ~ny ~bw ~bh area u;
        for gx = 0 to nx - 1 do
          for gy = 0 to ny - 1 do
            weights.(gy) <- u.((gy * nx) + gx)
          done;
          stretch_lane ~extent:fp.Floorplan.height ~n_bins:ny ~relief weights
            new_left p.Placement.y col_cells col_start.(gx)
            col_start.(gx + 1) damping
        done
      end
    done
  done;
  Placement.clamp_to_die p

(* ------------------------------------------------------------------ *)
(* Legalization                                                        *)
(* ------------------------------------------------------------------ *)

type segment = { s_lo : float; s_hi : float; mutable frontier : float }

let build_segments (p : Placement.t) tier =
  let fp = p.Placement.fp in
  let rows = Array.make fp.Floorplan.n_rows [] in
  (* subtract macro footprints *)
  let macros = ref [] in
  for c = 0 to Nl.n_cells p.nl - 1 do
    if Nl.is_macro p.nl c && p.Placement.tier.(c) = tier then begin
      let m = p.nl.Nl.masters.(c) in
      let w = m.Cl.width and h = m.Cl.height in
      macros :=
        ( p.Placement.x.(c) -. (w /. 2.),
          p.Placement.x.(c) +. (w /. 2.),
          p.Placement.y.(c) -. (h /. 2.),
          p.Placement.y.(c) +. (h /. 2.) )
        :: !macros
    end
  done;
  for r = 0 to fp.Floorplan.n_rows - 1 do
    let ry = Floorplan.row_y fp r in
    let y0 = ry -. (Cl.row_height /. 2.) and y1 = ry +. (Cl.row_height /. 2.) in
    (* blocked x-intervals in this row *)
    let blocked =
      List.filter_map
        (fun (mx0, mx1, my0, my1) ->
          if my1 > y0 +. 1e-9 && my0 < y1 -. 1e-9 then Some (mx0, mx1) else None)
        !macros
      |> List.sort compare
    in
    let segs = ref [] in
    let cursor = ref 0. in
    List.iter
      (fun (bx0, bx1) ->
        if bx0 > !cursor +. 1e-9 then
          segs := { s_lo = !cursor; s_hi = bx0; frontier = !cursor } :: !segs;
        cursor := Float.max !cursor bx1)
      blocked;
    if fp.Floorplan.width > !cursor +. 1e-9 then
      segs :=
        { s_lo = !cursor; s_hi = fp.Floorplan.width; frontier = !cursor }
        :: !segs;
    rows.(r) <- List.rev !segs
  done;
  rows

(* Push overlapping same-tier macros apart (there are at most a handful
   per design, so an iterative pairwise separation is plenty). *)
let separate_macros (p : Placement.t) =
  let n = Nl.n_cells p.nl in
  let macros = ref [] in
  for c = 0 to n - 1 do
    if Nl.is_macro p.nl c then macros := c :: !macros
  done;
  let macros = Array.of_list !macros in
  let half c =
    let m = p.nl.Nl.masters.(c) in
    (m.Cl.width /. 2., m.Cl.height /. 2.)
  in
  for _iter = 1 to 64 do
    for a = 0 to Array.length macros - 1 do
      for b = a + 1 to Array.length macros - 1 do
        let i = macros.(a) and j = macros.(b) in
        if p.Placement.tier.(i) = p.Placement.tier.(j) then begin
          let hwi, hhi = half i and hwj, hhj = half j in
          let dx = p.Placement.x.(j) -. p.Placement.x.(i) in
          let dy = p.Placement.y.(j) -. p.Placement.y.(i) in
          let ox = hwi +. hwj -. abs_float dx in
          let oy = hhi +. hhj -. abs_float dy in
          if ox > 0. && oy > 0. then
            if ox < oy then begin
              let push = (ox /. 2.) +. 1e-3 in
              let s = if dx >= 0. then 1. else -1. in
              p.Placement.x.(i) <- p.Placement.x.(i) -. (s *. push);
              p.Placement.x.(j) <- p.Placement.x.(j) +. (s *. push)
            end
            else begin
              let push = (oy /. 2.) +. 1e-3 in
              let s = if dy >= 0. then 1. else -1. in
              p.Placement.y.(i) <- p.Placement.y.(i) -. (s *. push);
              p.Placement.y.(j) <- p.Placement.y.(j) +. (s *. push)
            end
        end
      done
    done;
    Placement.clamp_to_die p
  done

let legalize ?(max_row_search = 24) (p : Placement.t) =
  let fp = p.Placement.fp in
  let n = Nl.n_cells p.nl in
  separate_macros p;
  for tier = 0 to Floorplan.n_tiers - 1 do
    let rows = build_segments p tier in
    (* capacity-based assignment: a segment accepts a cell while its
       total assigned width fits, independent of order — no space is
       wasted behind a packing frontier *)
    let seg_used = Array.map (List.map (fun _ -> ref 0.)) rows in
    let seg_cells = Array.map (List.map (fun _ -> ref [])) rows in
    let cells =
      List.init n Fun.id
      |> List.filter (fun c ->
             p.Placement.tier.(c) = tier && not (Nl.is_macro p.nl c))
    in
    List.iter
      (fun c ->
        let w = p.nl.Nl.masters.(c).Cl.width in
        let desired_x = p.Placement.x.(c) in
        let best = ref None in
        let consider r =
          if r >= 0 && r < fp.Floorplan.n_rows then
            List.iteri
              (fun k seg ->
                let used = List.nth seg_used.(r) k in
                if !used +. w <= seg.s_hi -. seg.s_lo +. 1e-9 then begin
                  let dy = abs_float (Floorplan.row_y fp r -. p.Placement.y.(c)) in
                  (* x-cost: distance from the desired x to the segment *)
                  let dx =
                    if desired_x < seg.s_lo then seg.s_lo -. desired_x
                    else if desired_x > seg.s_hi then desired_x -. seg.s_hi
                    else 0.
                  in
                  (* crowding term keeps rows balanced *)
                  let fill = !used /. Float.max 1e-9 (seg.s_hi -. seg.s_lo) in
                  let cost = (2. *. dy) +. dx +. (0.3 *. fill) in
                  match !best with
                  | Some (bc, _, _) when bc <= cost -> ()
                  | _ -> best := Some (cost, r, k)
                end)
              rows.(r)
        in
        let r0 = Floorplan.row_of fp p.Placement.y.(c) in
        let radius = ref 0 in
        let extra = ref (-1) in
        while !extra <> 0 && !radius < fp.Floorplan.n_rows do
          (if !radius = 0 then consider r0
           else begin
             consider (r0 - !radius);
             consider (r0 + !radius)
           end);
          if !best <> None then
            if !extra < 0 then extra := min 2 max_row_search else decr extra;
          incr radius
        done;
        match !best with
        | Some (_, r, k) ->
            let used = List.nth seg_used.(r) k in
            used := !used +. w;
            let lst = List.nth seg_cells.(r) k in
            lst := c :: !lst;
            p.Placement.y.(c) <- Floorplan.row_y fp r
        | None ->
            (* the die is genuinely full: keep the clamped position *)
            p.Placement.x.(c) <-
              Float.max (w /. 2.)
                (Float.min (fp.Floorplan.width -. (w /. 2.)) p.Placement.x.(c)))
      cells;
    (* pack each segment: forward sweep at desired positions, backward
       sweep to pull any right-edge overhang back in (all cells fit by
       the capacity invariant) *)
    Array.iteri
      (fun r segs ->
        List.iteri
          (fun k seg ->
            let members =
              List.sort
                (fun a b -> compare p.Placement.x.(a) p.Placement.x.(b))
                !(List.nth seg_cells.(r) k)
              |> Array.of_list
            in
            let m = Array.length members in
            if m > 0 then begin
              let xs = Array.make m 0. in
              let cur = ref seg.s_lo in
              for i = 0 to m - 1 do
                let c = members.(i) in
                let w = p.nl.Nl.masters.(c).Cl.width in
                let want = p.Placement.x.(c) -. (w /. 2.) in
                xs.(i) <- Float.max !cur want;
                cur := xs.(i) +. w
              done;
              (* backward fix-up *)
              let limit = ref seg.s_hi in
              for i = m - 1 downto 0 do
                let c = members.(i) in
                let w = p.nl.Nl.masters.(c).Cl.width in
                if xs.(i) +. w > !limit then xs.(i) <- !limit -. w;
                if xs.(i) < seg.s_lo then xs.(i) <- seg.s_lo;
                limit := xs.(i)
              done;
              for i = 0 to m - 1 do
                let c = members.(i) in
                let w = p.nl.Nl.masters.(c).Cl.width in
                p.Placement.x.(c) <- xs.(i) +. (w /. 2.)
              done
            end)
          segs)
      rows
  done

let legal_check (p : Placement.t) =
  let fp = p.Placement.fp in
  let n = Nl.n_cells p.nl in
  let exception Bad of string in
  try
    (* row alignment *)
    for c = 0 to n - 1 do
      if not (Nl.is_macro p.nl c) then begin
        let r = Floorplan.row_of fp p.Placement.y.(c) in
        if abs_float (Floorplan.row_y fp r -. p.Placement.y.(c)) > 1e-6 then
          raise (Bad (Printf.sprintf "cell %d off-row (y = %g)" c p.Placement.y.(c)))
      end
    done;
    (* same-tier, same-row overlap *)
    for tier = 0 to Floorplan.n_tiers - 1 do
      let by_row = Hashtbl.create 97 in
      for c = 0 to n - 1 do
        if p.Placement.tier.(c) = tier && not (Nl.is_macro p.nl c) then begin
          let r = Floorplan.row_of fp p.Placement.y.(c) in
          Hashtbl.replace by_row r
            (c :: Option.value ~default:[] (Hashtbl.find_opt by_row r))
        end
      done;
      Hashtbl.iter
        (fun r cells ->
          let sorted =
            List.sort (fun a b -> compare p.Placement.x.(a) p.Placement.x.(b)) cells
          in
          let edge = ref neg_infinity in
          List.iter
            (fun c ->
              let w = p.nl.Nl.masters.(c).Cl.width in
              let x0 = p.Placement.x.(c) -. (w /. 2.) in
              if x0 < !edge -. 1e-6 then
                raise (Bad (Printf.sprintf "overlap in tier %d row %d at cell %d" tier r c));
              edge := x0 +. w)
            sorted)
        by_row
    done;
    Ok ()
  with Bad m -> Error m

(* ------------------------------------------------------------------ *)
(* Wire demand (for the congestion-driven relief below)                *)
(* ------------------------------------------------------------------ *)

(* RUDY-style wire-demand map over the GCell grid (both tiers combined;
   spreading only moves (x, y)).  A local re-implementation: the
   congestion library sits above this one in the dependency order. *)
let wire_demand_map (p : Placement.t) =
  let fp = p.Placement.fp in
  let nx = fp.Floorplan.gcell_nx and ny = fp.Floorplan.gcell_ny in
  let bw = fp.Floorplan.width /. float_of_int nx in
  let bh = fp.Floorplan.height /. float_of_int ny in
  let map = Array.make_matrix ny nx 0. in
  List.iter
    (fun (net : Nl.net) ->
      let x0, y0, x1, y1 = Placement.net_bbox p net in
      let w = Float.max 0.1 (x1 -. x0) and h = Float.max 0.1 (y1 -. y0) in
      let weight = (1. /. w) +. (1. /. h) in
      let gx0 = max 0 (min (nx - 1) (int_of_float (x0 /. bw))) in
      let gx1 = max 0 (min (nx - 1) (int_of_float (x1 /. bw))) in
      let gy0 = max 0 (min (ny - 1) (int_of_float (y0 /. bh))) in
      let gy1 = max 0 (min (ny - 1) (int_of_float (y1 /. bh))) in
      for gy = gy0 to gy1 do
        for gx = gx0 to gx1 do
          map.(gy).(gx) <- map.(gy).(gx) +. weight
        done
      done)
    (Nl.signal_nets p.Placement.nl);
  map

let demand_quantile map q =
  let flat =
    Array.to_list map |> List.concat_map Array.to_list |> Array.of_list
  in
  Array.sort compare flat;
  let n = Array.length flat in
  if n = 0 then 0.
  else flat.(max 0 (min (n - 1) (int_of_float (q *. float_of_int n))))

(* ------------------------------------------------------------------ *)
(* Full pipeline                                                       *)
(* ------------------------------------------------------------------ *)

(* Global spreading target: congestion knobs do NOT drag this down —
   they drive the surgical hotspot relief below instead, which is how
   the real tool keeps its congestion mode within ~1 % wirelength. *)
let effective_target (params : Params.t) =
  let t = ref params.Params.max_density in
  (* low-power modes pack tighter (shorter wires, less switching cap) *)
  if params.Params.low_power_placement then t := !t +. 0.05;
  t := !t +. (0.01 *. float_of_int params.Params.enhanced_low_power_effort);
  Float.max 0.70 (Float.min 0.95 !t)

(* Surgical congestion relief: relocate {e whole single-bin nets} out
   of the hottest-demand bins into a cooler neighbouring bin.  Because
   every pin of the net moves by the same bin offset, the net's own
   wirelength is unchanged and only the (few) other nets touching the
   moved cells stretch by one GCell — demand moves wholesale at near-zero
   wirelength cost, which is exactly the trade ICC2's congestion mode
   makes (Table III shows ~1 % WL for Pin-3D+Cong.). *)
let relieve_hot_nets ?(quantile = 0.92) ?(fraction = 0.5) (p : Placement.t) :
    int =
  let fp = p.Placement.fp in
  let nx = fp.Floorplan.gcell_nx and ny = fp.Floorplan.gcell_ny in
  let bw = fp.Floorplan.width /. float_of_int nx in
  let bh = fp.Floorplan.height /. float_of_int ny in
  let demand = wire_demand_map p in
  let thr = demand_quantile demand quantile in
  let nl = p.Placement.nl in
  (* nets fully contained in one bin, grouped by bin *)
  let contained = Array.make_matrix ny nx [] in
  List.iter
    (fun (net : Nl.net) ->
      let x0, y0, x1, y1 = Placement.net_bbox p net in
      let gx0 = max 0 (min (nx - 1) (int_of_float (x0 /. bw))) in
      let gx1 = max 0 (min (nx - 1) (int_of_float (x1 /. bw))) in
      let gy0 = max 0 (min (ny - 1) (int_of_float (y0 /. bh))) in
      let gy1 = max 0 (min (ny - 1) (int_of_float (y1 /. bh))) in
      if gx0 = gx1 && gy0 = gy1 then begin
        let w = Float.max 0.1 (x1 -. x0) and h = Float.max 0.1 (y1 -. y0) in
        let weight = (1. /. w) +. (1. /. h) in
        contained.(gy0).(gx0) <- (net, weight) :: contained.(gy0).(gx0)
      end)
    (Nl.signal_nets nl);
  let moved = Array.make (Nl.n_cells nl) false in
  let n_moved = ref 0 in
  for gy = 0 to ny - 1 do
    for gx = 0 to nx - 1 do
      if demand.(gy).(gx) > thr then begin
        (* coolest 4-neighbour *)
        let best = ref None in
        List.iter
          (fun (dx, dy) ->
            let gx' = gx + dx and gy' = gy + dy in
            if gx' >= 0 && gx' < nx && gy' >= 0 && gy' < ny then
              match !best with
              | Some (d, _, _) when d <= demand.(gy').(gx') -> ()
              | _ -> best := Some (demand.(gy').(gx'), dx, dy))
          [ (-1, 0); (1, 0); (0, -1); (0, 1) ];
        match !best with
        | Some (d_nb, dx, dy) when d_nb < demand.(gy).(gx) ->
            let budget = ref (fraction *. (demand.(gy).(gx) -. thr)) in
            let ox = float_of_int dx *. bw and oy = float_of_int dy *. bh in
            List.iter
              (fun ((net : Nl.net), weight) ->
                (* keep the move strictly balancing *)
                if
                  !budget > 0.
                  && demand.(gy + dy).(gx + dx) +. weight
                     < demand.(gy).(gx) -. weight
                then begin
                  (* move every cell pin of the net by one bin pitch,
                     each cell at most once per pass *)
                  let cells = ref [] in
                  let collect = function
                    | Nl.Cell c when (not moved.(c)) && not (Nl.is_macro nl c) ->
                        cells := c :: !cells
                    | Nl.Cell _ | Nl.Io _ -> ()
                  in
                  collect net.Nl.driver;
                  Array.iter collect net.Nl.sinks;
                  if !cells <> [] then begin
                    incr n_moved;
                    List.iter
                      (fun c ->
                        moved.(c) <- true;
                        p.Placement.x.(c) <- p.Placement.x.(c) +. ox;
                        p.Placement.y.(c) <- p.Placement.y.(c) +. oy)
                      !cells;
                    budget := !budget -. weight;
                    demand.(gy).(gx) <- demand.(gy).(gx) -. weight;
                    demand.(gy + dy).(gx + dx) <-
                      demand.(gy + dy).(gx + dx) +. weight
                  end
                end)
              contained.(gy).(gx)
        | Some _ | None -> ()
      end
    done
  done;
  Placement.clamp_to_die p;
  !n_moved

(* Pin-saturation inflation: cells in GCells whose pin density exceeds
   ~the router's saturation knee get inflated, so the final spreading
   pass pushes exactly the clusters that are losing routing tracks to
   pin access.  Mirrors Router's pin-blockage model (saturation = 2.5x
   the design's mean pin density). *)
let pin_saturation_inflation (p : Placement.t) ~strength =
  let fp = p.Placement.fp in
  let nx = fp.Floorplan.gcell_nx and ny = fp.Floorplan.gcell_ny in
  let bw = fp.Floorplan.width /. float_of_int nx in
  let bh = fp.Floorplan.height /. float_of_int ny in
  let nl = p.Placement.nl in
  let bins = Array.init Floorplan.n_tiers (fun _ -> Array.make_matrix ny nx 0.) in
  let add e =
    let x, y, t = Placement.endpoint_position p e in
    let gx = max 0 (min (nx - 1) (int_of_float (x /. bw))) in
    let gy = max 0 (min (ny - 1) (int_of_float (y /. bh))) in
    bins.(t).(gy).(gx) <- bins.(t).(gy).(gx) +. 1.
  in
  List.iter
    (fun (net : Nl.net) ->
      add net.Nl.driver;
      Array.iter add net.Nl.sinks)
    (Nl.signal_nets nl);
  let mean = ref 0. in
  Array.iter
    (fun tb -> Array.iter (fun row -> Array.iter (fun v -> mean := !mean +. v) row) tb)
    bins;
  let mean = !mean /. float_of_int (Floorplan.n_tiers * nx * ny) in
  let sat = Float.max 1e-9 (2.5 *. mean) in
  let infl = Array.make (Nl.n_cells nl) 1. in
  for c = 0 to Nl.n_cells nl - 1 do
    let gx = max 0 (min (nx - 1) (int_of_float (p.Placement.x.(c) /. bw))) in
    let gy = max 0 (min (ny - 1) (int_of_float (p.Placement.y.(c) /. bh))) in
    let d = bins.(p.Placement.tier.(c)).(gy).(gx) in
    if d > 0.8 *. sat then
      infl.(c) <- Float.min 2.0 (1. +. (strength *. (d /. sat)))
  done;
  infl

let congestion_mode (params : Params.t) =
  params.Params.cong_restruct_effort > 0
  || params.Params.pin_density_aware
  || params.Params.global_route_based
  || params.Params.enable_irap

let global_place ~seed ~params nl fp =
  Obs.with_span "place" (fun () ->
  let p = Placement.create nl fp in
  let rng = Rng.create (seed lxor 0x9e3779b9) in
  (* tier assignment *)
  let tier = Partition.bipartition ~seed nl in
  Array.blit tier 0 p.Placement.tier 0 (Array.length tier);
  (* initial QP *)
  let cg = 40 + (30 * params.Params.initial_place_effort) in
  let sys = build_system p in
  solve_qp sys ~anchor_weight:0. ~anchors:None ~cg_iters:cg p;
  (* seed-dependent jitter: distinct layouts for the dataset even under
     identical knobs, mirroring run-to-run tool variation *)
  let jitter = 0.35 *. Floorplan.gcell_w fp in
  for c = 0 to Nl.n_cells nl - 1 do
    p.Placement.x.(c) <- p.Placement.x.(c) +. Rng.gaussian ~sigma:jitter rng;
    p.Placement.y.(c) <- p.Placement.y.(c) +. Rng.gaussian ~sigma:jitter rng
  done;
  Placement.clamp_to_die p;
  let target = effective_target params in
  let spread_iters = 10 in
  let rounds =
    1 + params.Params.initial_place_effort
    + (if params.Params.two_pass then 1 else 0)
    + if params.Params.enable_ccd then 1 else 0
  in
  let anchor_w = ref 0.02 in
  for _round = 1 to rounds do
    Obs.with_span "spread" (fun () ->
        spread ~iterations:spread_iters ~target_density:target ~inflation:None p);
    let ax = Array.copy p.Placement.x and ay = Array.copy p.Placement.y in
    solve_qp sys ~anchor_weight:!anchor_w ~anchors:(Some (ax, ay)) ~cg_iters:cg p;
    anchor_w := !anchor_w *. 2.
  done;
  (* Congestion knobs: the FINAL spreading pass runs with pin-
     saturation inflation so that pin-dense clusters (the ones losing
     routing tracks to pin access) get pushed apart — same pipeline
     shape as the baseline, no extra churn, small wirelength cost. *)
  let final_inflation =
    if congestion_mode params then begin
      let strength =
        Float.min 0.8
          (0.09
          *. (1.
             +. (0.25 *. float_of_int params.Params.cong_restruct_effort)
             +. (0.05 *. float_of_int params.Params.cong_restruct_iterations)
             +. (if params.Params.pin_density_aware then 0.25 else 0.)
             +. if params.Params.global_route_based then 0.15 else 0.))
      in
      Some (pin_saturation_inflation p ~strength)
    end
    else None
  in
  let final_iters = spread_iters + (6 * params.Params.final_place_effort) in
  Obs.with_span "spread" (fun () ->
      spread ~iterations:final_iters ~target_density:target
        ~inflation:final_inflation p);
  Obs.with_span "legalize" (fun () ->
      legalize ~max_row_search:(8 + (3 * params.Params.displacement_threshold)) p);
  p)

(* Deterministic placement perturbation: move a seeded random fraction
   of the standard cells by a bounded jitter, modelling the small
   deltas an incremental placement pass (or an ECO) applies between
   routing runs.  Each cell consumes a fixed number of RNG draws
   whether or not it moves, so the moved set is a function of the seed
   alone.  No legalization: the router only reads GCell-binned
   coordinates, and warm-start benchmarks want sub-GCell and
   cross-GCell moves in controlled proportion. *)
let perturb ?(seed = 0) ?(fraction = 0.05) ?max_dist (p : Placement.t) =
  let q = Placement.copy p in
  let md =
    match max_dist with
    | Some d -> d
    | None -> 0.5 *. Floorplan.gcell_w q.Placement.fp
  in
  let rng = Rng.create (seed lxor 0x7f4a7c15) in
  for c = 0 to Nl.n_cells q.Placement.nl - 1 do
    let roll = Rng.uniform rng in
    let dx = Rng.range rng (-.md) md in
    let dy = Rng.range rng (-.md) md in
    if roll < fraction && not (Nl.is_macro q.Placement.nl c) then begin
      q.Placement.x.(c) <- q.Placement.x.(c) +. dx;
      q.Placement.y.(c) <- q.Placement.y.(c) +. dy
    end
  done;
  Placement.clamp_to_die q;
  q
