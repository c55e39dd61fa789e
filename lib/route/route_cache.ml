(* Content-addressed disk cache of full routing results.

   Routing is a pure function of (netlist structure, GCell-binned
   placement, grid geometry, config) — the router's sort keys, pin
   densities and traces all read the placement through `Fp.gcell_of`
   (see [Router.endpoint_bins]) — so those inputs hash to the cache
   key and a hit replays the stored result bit-identically (the
   determinism digest of a replay equals the cold route's).

   Entries live in a [Framing.Store] ("DCO3D-ROUTE-V1", ".route",
   [route/cache_*] counters) holding the flattened result, so stored-key
   rechecks, corruption handling, the LRU bound and temp-file + rename
   writes (shard daemons and parallel dataset workers share one cache
   directory) are the store's; this module owns only the content key
   and the flattening. *)

module T = Dco3d_tensor.Tensor
module Nl = Dco3d_netlist.Netlist
module Fp = Dco3d_place.Floorplan
module Pl = Dco3d_place.Placement
module Store = Dco3d_framing.Framing.Store

let add_int buf i = Buffer.add_string buf (Printf.sprintf " %d" i)

(* exact bit pattern — "%g"-style rounding could alias two configs *)
let add_float buf f =
  Buffer.add_string buf (Printf.sprintf " %Lx" (Int64.bits_of_float f))

let key ~(config : Router.config) (p : Pl.t) =
  let buf = Buffer.create 65536 in
  let nl = p.Pl.nl and fp = p.Pl.fp in
  let add_endpoint e =
    match e with
    | Nl.Cell c ->
        add_int buf 0;
        add_int buf c
    | Nl.Io i ->
        add_int buf 1;
        add_int buf i
  in
  (* netlist structure, in net order (signal_nets derives from it);
     masters are excluded — routing never reads them *)
  Buffer.add_string buf nl.Nl.design;
  add_int buf (Nl.n_cells nl);
  add_int buf (Nl.n_ios nl);
  Array.iter
    (fun (net : Nl.net) ->
      add_int buf net.Nl.net_id;
      add_int buf (if net.Nl.is_clock then 1 else 0);
      add_endpoint net.Nl.driver;
      add_int buf (Array.length net.Nl.sinks);
      Array.iter add_endpoint net.Nl.sinks)
    nl.Nl.nets;
  (* grid geometry (gcell_w/gcell_h derive from these) *)
  add_int buf fp.Fp.gcell_nx;
  add_int buf fp.Fp.gcell_ny;
  add_float buf fp.Fp.width;
  add_float buf fp.Fp.height;
  (* GCell-binned placement: every signal-net endpoint's (gx, gy, tier)
     — sub-GCell moves leave the key (and the routing) unchanged *)
  List.iter
    (fun (net : Nl.net) ->
      let bin e =
        let x, y, tier = Pl.endpoint_position p e in
        let gx, gy = Fp.gcell_of fp x y in
        add_int buf gx;
        add_int buf gy;
        add_int buf tier
      in
      bin net.Nl.driver;
      Array.iter bin net.Nl.sinks)
    (Nl.signal_nets nl);
  (* full config *)
  add_int buf config.Router.cap_h;
  add_int buf config.Router.cap_v;
  add_int buf config.Router.cap_via;
  add_int buf config.Router.max_iterations;
  add_float buf config.Router.history_weight;
  add_float buf config.Router.overflow_penalty;
  add_float buf config.Router.pin_blockage;
  add_float buf config.Router.pin_saturation;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Tensors are flattened to (shape, data) pairs so the Marshal image
   stays independent of the Tensor module's internals (same idiom as
   the dataset files). *)
type flat = {
  x_overflow_total : int;
  x_overflow_h : int;
  x_overflow_v : int;
  x_overflow_via : int;
  x_overflow_gcell_pct : float;
  x_wirelength : float;
  x_congestion : (int array * float array) array;
  x_utilization : (int array * float array) array;
  x_net_length : float array;
  x_iterations_run : int;
  x_net_edges : int array array;
  x_history : float array;
  x_config : Router.config;
}

let flatten_tensor t = (T.shape t, Array.init (T.numel t) (T.get_flat t))
let unflatten (shape, data) = T.make shape data

let flat_of_result (r : Router.result) =
  {
    x_overflow_total = r.Router.overflow_total;
    x_overflow_h = r.Router.overflow_h;
    x_overflow_v = r.Router.overflow_v;
    x_overflow_via = r.Router.overflow_via;
    x_overflow_gcell_pct = r.Router.overflow_gcell_pct;
    x_wirelength = r.Router.wirelength;
    x_congestion = Array.map flatten_tensor r.Router.congestion;
    x_utilization = Array.map flatten_tensor r.Router.utilization;
    x_net_length = r.Router.net_length;
    x_iterations_run = r.Router.iterations_run;
    x_net_edges = r.Router.net_edges;
    x_history = r.Router.history;
    x_config = r.Router.config;
  }

let result_of_flat f : Router.result =
  {
    Router.overflow_total = f.x_overflow_total;
    overflow_h = f.x_overflow_h;
    overflow_v = f.x_overflow_v;
    overflow_via = f.x_overflow_via;
    overflow_gcell_pct = f.x_overflow_gcell_pct;
    wirelength = f.x_wirelength;
    congestion = Array.map unflatten f.x_congestion;
    utilization = Array.map unflatten f.x_utilization;
    net_length = f.x_net_length;
    iterations_run = f.x_iterations_run;
    net_edges = f.x_net_edges;
    history = f.x_history;
    config = f.x_config;
  }

type t = flat Store.t

let create ?max_entries dir =
  Store.create ~magic:"DCO3D-ROUTE-V1" ~suffix:".route" ~counters:"route/cache"
    ?max_entries dir

let find t ~config p = Option.map result_of_flat (Store.find t (key ~config p))

let find_or_route ?cache ?(validate = false) ?warm_start ~config p =
  match cache with
  | None -> Router.route ~config ~validate ?warm_start p
  | Some t -> (
      let k = key ~config p in
      match Store.find t k with
      | Some f -> result_of_flat f
      | None ->
          let r = Router.route ~config ~validate ?warm_start p in
          (* A warm-started result is a function of its predecessor
             chain, not of the content key alone, so persisting it
             would poison the cache's cold-replay contract. *)
          if Option.is_none warm_start then
            ignore (Store.put t k (flat_of_result r) : bool);
          r)
