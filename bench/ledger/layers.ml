(* Per-layer attribution of a traced run, from the program's own spans.

   A traced operation is an entry-point call inside a [root] span; the
   program's spans (corpus/cell, flow/calibrate, place, route, sta, ...)
   nest inside it.  Each span's self time is its time minus its
   children's, and goes to the layer of the nearest span at or above it
   that names one; what no layer claims is the root's.  The UNet split
   of a training step has no program span: [Workloads.unet_step_probe]
   opens the ledger's own spans for it, under [probe_root]. *)

module Obs = Dco3d_obs.Obs

let root = "ledger.op"
let setup_root = "ledger.setup"
let probe_root = "ledger.probe"

(* Every layer the traced runs report, in report order. *)
let timed =
  [
    "netlist.generate";
    "flow.context";
    "flow.run";
    "place.global_place";
    "place.legalize";
    "route.cold";
    "route.warm";
    "sta.analyze";
    "flow.signoff";
    "cts.synthesize";
    "thermal.solve";
    "core.prep";
    "core.train_epoch";
    "dco.optimize";
    "dco.iter";
  ]

(* Layers of the training-step probe, per step. *)
let probed = [ "nn.unet_fwd"; "autodiff.backward"; "autodiff.adam_step" ]

(* Program span names that contain a '/' themselves. *)
let rec segments = function
  | "flow" :: "calibrate" :: rest -> "flow/calibrate" :: segments rest
  | "corpus" :: "cell" :: rest -> "corpus/cell" :: segments rest
  | "dataset" :: "build" :: rest -> "dataset/build" :: segments rest
  | s :: rest -> s :: segments rest
  | [] -> []

(* The layer a span named [seg] belongs to, given its ancestors.  A
   route inside calibration or dataset building starts cold; every
   other route in a flow is warm-started from the context's last one. *)
let layer_of ancestors seg =
  match seg with
  | "corpus/cell" -> Some "netlist.generate"
  | "flow/calibrate" -> Some "flow.context"
  | "flow" -> Some "flow.run"
  | "place" -> Some "place.global_place"
  | "legalize" -> Some "place.legalize"
  | "route" ->
      if List.exists (fun a -> a = "flow/calibrate" || a = "dataset/build") ancestors
      then Some "route.cold"
      else Some "route.warm"
  | "sta" -> Some "sta.analyze"
  | "signoff" -> Some "flow.signoff"
  | "cts" -> Some "cts.synthesize"
  | "thermal" -> Some "thermal.solve"
  | "dataset/build" -> Some "core.dataset_build"
  | "predictor" -> Some "core.prep"
  | "epoch:*" -> Some "core.train_epoch"
  | "dco" -> Some "dco.optimize"
  | "iter:*" -> Some "dco.iter"
  | s when List.mem s probed -> Some s
  | _ -> None

(* The layer of a span path: its deepest segment that names one. *)
let layer_of_path segs =
  let rec go ancestors best = function
    | [] -> best
    | s :: rest ->
        let best = match layer_of ancestors s with Some l -> Some l | None -> best in
        go (s :: ancestors) best rest
  in
  go [] None segs

(* [self_ms top] is [(layer, self ms)] summed over every span recorded
   under the root span [top], with [(top, unattributed ms)], plus the
   total time of [top]. *)
let self_ms top =
  let spans =
    List.filter_map
      (fun (s : Obs.span_stat) ->
        match segments (String.split_on_char '/' s.Obs.sp_path) with
        | r :: _ as segs when r = top -> Some (segs, s.Obs.sp_total_ms)
        | _ -> None)
      (Obs.stage_profile ())
  in
  let children = Hashtbl.create 64 in
  List.iter
    (fun (segs, total) ->
      match List.rev segs with
      | _ :: (_ :: _ as parent) ->
          let p = List.rev parent in
          Hashtbl.replace children p
            (total +. Option.value ~default:0. (Hashtbl.find_opt children p))
      | _ -> ())
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (segs, total) ->
      let self = total -. Option.value ~default:0. (Hashtbl.find_opt children segs) in
      let l = Option.value ~default:top (layer_of_path segs) in
      Hashtbl.replace acc l (self +. Option.value ~default:0. (Hashtbl.find_opt acc l)))
    spans;
  let top_total =
    List.fold_left (fun a (segs, t) -> if segs = [ top ] then a +. t else a) 0. spans
  in
  (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [], top_total)
