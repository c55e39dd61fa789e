(* Generated multi-design PPA benchmark corpus.

   A corpus point is a seeded variation of one of the six Table-III
   generator profiles: scale moves the #cells/#nets axis, the
   depth/hub/locality overrides move the Rent-style topology axes,
   [sp_seq_fraction] the flip-flop share, and [sp_macros] swaps in a
   generated SRAM block stack (the macro-density axis).  The resolved
   profile is named after the corpus point, so two points on the same
   base draw distinct RNG streams and carry distinct design names all
   the way into the flow reports.

   PPA rows persist in a [Framing.Store] ("DCO3D-CORPUS-V1", ".ppa")
   keyed by MD5(netlist digest x flow config x seed) — the same store
   (and the same LRU bound) as the route cache one directory over. *)

module Nl = Dco3d_netlist.Netlist
module Gen = Dco3d_netlist.Generator
module Cl = Dco3d_netlist.Cell_lib
module Flow = Dco3d_flow.Flow
module Route_cache = Dco3d_route.Route_cache
module Dataset = Dco3d_core.Dataset
module Store = Dco3d_framing.Framing.Store
module Obs = Dco3d_obs.Obs

type spec = {
  sp_name : string;
  sp_base : string;
  sp_scale : float;
  sp_seed : int;
  sp_seq_fraction : float option;
  sp_depth : int option;
  sp_hub_fraction : float option;
  sp_locality : float option;
  sp_macros : int option;
}

let spec ?(scale = 1.0) ?(seed = 42) ?seq_fraction ?depth ?hub_fraction
    ?locality ?macros ~name base =
  {
    sp_name = name;
    sp_base = base;
    sp_scale = scale;
    sp_seed = seed;
    sp_seq_fraction = seq_fraction;
    sp_depth = depth;
    sp_hub_fraction = hub_fraction;
    sp_locality = locality;
    sp_macros = macros;
  }

(* The default corpus: one point per sweep axis around the bases,
   including macro-heavy and RocketCore-scale entries. *)
let designs =
  [
    spec ~name:"dma" "DMA";
    spec ~name:"aes" "AES";
    spec ~name:"aes-ff" ~seq_fraction:0.35 "AES";
    spec ~name:"ldpc-shallow" ~depth:4 ~hub_fraction:0.008 "LDPC";
    spec ~name:"ecg-local" ~locality:0.9 "ECG";
    spec ~name:"ecg-global" ~locality:0.15 "ECG";
    spec ~name:"vga-macro" ~macros:6 "VGA";
    spec ~name:"rocket" "Rocket";
    spec ~name:"rocket-macro" ~macros:8 "Rocket";
  ]

let find name =
  let lc = String.lowercase_ascii name in
  List.find (fun s -> String.lowercase_ascii s.sp_name = lc) designs

let scaled m s = { s with sp_scale = s.sp_scale *. m }
let reseeded seed s = { s with sp_seed = seed }

(* Generated SRAM stack for the macro-density axis: three footprint
   classes cycled deterministically, roughly the Rocket cache/TLB
   range. *)
let corpus_macros n =
  List.init n (fun i ->
      let w, h =
        match i mod 3 with 0 -> (8.0, 6.0) | 1 -> (6.0, 4.0) | _ -> (4.0, 3.0)
      in
      (Printf.sprintf "CORPUS_SRAM%d" i, w, h))

let to_profile s =
  let base = Gen.profile s.sp_base in
  let value d = function Some v -> v | None -> d in
  {
    base with
    Gen.name = s.sp_name;
    seq_fraction = value base.Gen.seq_fraction s.sp_seq_fraction;
    depth = value base.Gen.depth s.sp_depth;
    hub_fraction = value base.Gen.hub_fraction s.sp_hub_fraction;
    locality = value base.Gen.locality s.sp_locality;
    macros =
      (match s.sp_macros with
      | Some n -> corpus_macros n
      | None -> base.Gen.macros);
  }

let generate s = Gen.generate ~scale:s.sp_scale ~seed:s.sp_seed (to_profile s)

(* A generated netlist is a pure function of its spec with no sharing
   tricks, so structurally identical netlists marshal to identical
   bytes — across processes and at any DCO3D_JOBS. *)
let netlist_digest nl = Digest.to_hex (Digest.string (Marshal.to_string nl []))

(* ------------------------------------------------------------------ *)
(* Flow configs and PPA rows                                           *)
(* ------------------------------------------------------------------ *)

type variant = Pin3d | Cong

type flow_config = {
  fc_name : string;
  fc_variant : variant;
  fc_gcell : int;
  fc_util : float;
}

let flow_config ?(gcell = 48) ?(util = 0.55) ?(variant = Pin3d) name =
  { fc_name = name; fc_variant = variant; fc_gcell = gcell; fc_util = util }

let default_configs =
  [ flow_config "base"; flow_config ~variant:Cong "cong" ]

type row = {
  r_design : string;
  r_digest : string;
  r_config : string;
  r_seed : int;
  r_cells : int;
  r_nets : int;
  r_overflow : int;
  r_ovf_pct : float;
  r_wirelength_um : float;
  r_wns_ps : float;
  r_tns_ps : float;
  r_power_mw : float;
  r_peak_c : float;
  r_avg_c : float;
  r_gen_ms : float;
  r_calib_ms : float;
  r_flow_ms : float;
}

let add_int buf i = Buffer.add_string buf (Printf.sprintf " %d" i)

(* exact bit pattern — "%g"-style rounding could alias two rows *)
let add_float buf f =
  Buffer.add_string buf (Printf.sprintf " %Lx" (Int64.bits_of_float f))

let row_digest r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf r.r_design;
  Buffer.add_char buf '|';
  Buffer.add_string buf r.r_digest;
  Buffer.add_char buf '|';
  Buffer.add_string buf r.r_config;
  add_int buf r.r_seed;
  add_int buf r.r_cells;
  add_int buf r.r_nets;
  add_int buf r.r_overflow;
  add_float buf r.r_ovf_pct;
  add_float buf r.r_wirelength_um;
  add_float buf r.r_wns_ps;
  add_float buf r.r_tns_ps;
  add_float buf r.r_power_mw;
  add_float buf r.r_peak_c;
  add_float buf r.r_avg_c;
  (* wall times excluded: reruns are bit-identical in every metric *)
  Digest.to_hex (Digest.string (Buffer.contents buf))

let store_key ~netlist_digest ~seed fc =
  let buf = Buffer.create 128 in
  Buffer.add_string buf netlist_digest;
  Buffer.add_char buf '|';
  Buffer.add_string buf fc.fc_name;
  add_int buf (match fc.fc_variant with Pin3d -> 0 | Cong -> 1);
  add_int buf fc.fc_gcell;
  add_float buf fc.fc_util;
  add_int buf seed;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* On-disk PPA store                                                   *)
(* ------------------------------------------------------------------ *)

let open_store dir : row Store.t =
  Store.create ~magic:"DCO3D-CORPUS-V1" ~suffix:".ppa" ~counters:"corpus/cache"
    dir

(* ------------------------------------------------------------------ *)
(* Matrix runner                                                       *)
(* ------------------------------------------------------------------ *)

let now_ms () = Unix.gettimeofday () *. 1e3

let context_of ?route_cache ~seed nl fc =
  Flow.make_context ~seed ~utilization:fc.fc_util ~gcell_nx:fc.fc_gcell
    ~gcell_ny:fc.fc_gcell ?route_cache nl

let run_cell ?store ?route_cache s fc =
  Obs.with_span "corpus/cell"
    ~args:[ ("design", s.sp_name); ("config", fc.fc_name) ]
  @@ fun () ->
  let t0 = now_ms () in
  let nl = generate s in
  let dg = netlist_digest nl in
  let t1 = now_ms () in
  let key = store_key ~netlist_digest:dg ~seed:s.sp_seed fc in
  match Option.bind store (fun st -> Store.find st key) with
  | Some r -> r
  | None ->
      let ctx = context_of ?route_cache ~seed:s.sp_seed nl fc in
      let t2 = now_ms () in
      let fr =
        match fc.fc_variant with
        | Pin3d -> Flow.run_pin3d ctx
        | Cong -> Flow.run_pin3d_cong ctx
      in
      let t3 = now_ms () in
      let r =
        {
          r_design = s.sp_name;
          r_digest = dg;
          r_config = fc.fc_name;
          r_seed = s.sp_seed;
          r_cells = Nl.n_cells nl;
          r_nets = Nl.n_nets nl;
          r_overflow = fr.Flow.place_stage.Flow.overflow;
          r_ovf_pct = fr.Flow.place_stage.Flow.ovf_gcell_pct;
          r_wirelength_um = fr.Flow.signoff.Flow.wirelength_um;
          r_wns_ps = fr.Flow.signoff.Flow.wns_ps;
          r_tns_ps = fr.Flow.signoff.Flow.tns_ps;
          r_power_mw = fr.Flow.signoff.Flow.power_mw;
          r_peak_c = fr.Flow.signoff.Flow.peak_temp_c;
          r_avg_c = fr.Flow.signoff.Flow.avg_temp_c;
          r_gen_ms = t1 -. t0;
          r_calib_ms = t2 -. t1;
          r_flow_ms = t3 -. t2;
        }
      in
      (match store with
      | Some st -> ignore (Store.put st key r : bool)
      | None -> ());
      r

let run_matrix ?store ?route_cache ~specs ~configs () =
  List.concat_map
    (fun s -> List.map (fun fc -> run_cell ?store ?route_cache s fc) configs)
    specs

let build_dataset ?n_samples ?route_cache s fc =
  let nl = generate s in
  let ctx = context_of ?route_cache ~seed:s.sp_seed nl fc in
  Dataset.build ?n_samples ~seed:s.sp_seed ?route_cache
    ~route_cfg:ctx.Flow.route_cfg nl ctx.Flow.fp

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let json_of_row r =
  Printf.sprintf
    "{\"design\":%S,\"digest\":%S,\"config\":%S,\"seed\":%d,\"cells\":%d,\"nets\":%d,\"overflow\":%d,\"ovf_gcell_pct\":%.4f,\"wirelength_um\":%.3f,\"wns_ps\":%.3f,\"tns_ps\":%.3f,\"power_mw\":%.4f,\"peak_c\":%.3f,\"avg_c\":%.3f,\"gen_ms\":%.1f,\"calib_ms\":%.1f,\"flow_ms\":%.1f,\"row_digest\":%S}"
    r.r_design r.r_digest r.r_config r.r_seed r.r_cells r.r_nets r.r_overflow
    r.r_ovf_pct r.r_wirelength_um r.r_wns_ps r.r_tns_ps r.r_power_mw r.r_peak_c
    r.r_avg_c r.r_gen_ms r.r_calib_ms r.r_flow_ms (row_digest r)

let write_json path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter (fun r -> output_string oc (json_of_row r ^ "\n")) rows)

let pp_matrix ppf rows =
  Format.fprintf ppf
    "%-14s %-6s %8s %8s | %7s %6s | %10s %8s %10s %7s %5s/%5s | %8s@\n"
    "design" "config" "cells" "nets" "ovf" "ovf%" "WL um" "WNS ps" "TNS ps"
    "mW" "Tpk" "Tavg" "flow ms";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-14s %-6s %8d %8d | %7d %5.2f%% | %10.1f %8.2f %10.1f %7.2f %5.1f/%5.1f | %8.1f@\n"
        r.r_design r.r_config r.r_cells r.r_nets r.r_overflow r.r_ovf_pct
        r.r_wirelength_um r.r_wns_ps r.r_tns_ps r.r_power_mw r.r_peak_c
        r.r_avg_c r.r_flow_ms)
    rows
