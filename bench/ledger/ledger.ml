(* ledger — the repository's end-to-end benchmark.

   One workload per process:

     ledger.exe --workload W --seed N --seconds S --trace 0|1
                [--smoke] [--trace-dir DIR] [--out FILE]

   sets the workload up, repeats its operation for S seconds, checks
   every output, and prints as its last stdout line one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics of a traced run with --trace 1
   (which also writes DIR/W.trace.json and DIR/W.layers.json).  The
   line before it, "ledger-result {...}", carries the run header,
   sample counts, min/max, digests and quality numbers.

   Every workload, each in its own child process:

     ledger.exe run [--workload W]... [--seed N] [--seconds S]
                    [--trace DIR] [--out FILE] [--smoke] [--bench FILE]

   prints "workload metric value unit n=<samples>" lines, writes the
   child results to FILE (default logs/ledger/run-<seed>-<time>.json)
   for ledger_check, and exits non-zero on any failure, including a
   BENCHMARK.json (--bench, default ./BENCHMARK.json when present) that
   does not list exactly the ledger's workloads and metrics.  --smoke
   runs every workload at tiny sizes with one operation each, traced
   and untraced. *)

module Obs = Dco3d_obs.Obs
module Pool = Dco3d_parallel.Pool
module W = Workloads

let now = Unix.gettimeofday
let workloads = [ "flow-corpus"; "train-alg1"; "dco-alg2"; "serve-predict" ]
let default_seconds = 20.
let log_dir = "logs/ledger"

let end_to_end =
  [
    ("op_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* per-layer work counters the program already keeps *)
let counters =
  [
    ("place.cg_iters", "place/cg_iters");
    ("route.astar_pops", "route/astar_pops");
    ("route.ripped_nets", "route/ripped_nets");
    ("sta.analyses", "sta/analyses");
    ("thermal.cg_iters", "thermal/cg_iters");
    ("dco.iterations", "dco/iterations");
    ("pool.chunks", "pool/chunks");
  ]

let with_share layers =
  List.concat_map (fun l -> [ (l ^ "_ms", "ms"); (l ^ "_share", "fraction") ]) layers

let per_layer =
  with_share Layers.timed
  @ with_share Layers.probed
  @ List.map (fun (m, _) -> (m, "count")) counters
  @ [
      ("route.warm_reused_frac", "fraction");
      ("core.dataset_build_ms", "ms");
      ("nn.predict_batch1_ms", "ms");
      ("nn.predict_batch2_ms", "ms");
      ("serve.rps", "1/s");
      ("serve.p90_ms", "ms");
      ("serve.p99_ms", "ms");
      ("serve.miss_p50_ms", "ms");
      ("serve.hit_p50_ms", "ms");
      ("serve.overhead_ms", "ms");
      ("serve.cache_hit_frac", "fraction");
      ("serve.batch_mean", "count");
      ("serve.overloaded", "count");
      ("flow.overflow", "count");
      ("train.test_loss", "loss");
      ("alg2.overflow_delta_pct", "%");
      ("trace_overhead_pct", "%");
      ("trace_coverage_pct", "%");
    ]

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { value : float; n : int; lo : float; hi : float }

let single v = { value = v; n = 1; lo = v; hi = v }

let timing f xs =
  match xs with
  | [] -> single 0.
  | _ ->
      {
        value = f xs;
        n = List.length xs;
        lo = List.fold_left Float.min infinity xs;
        hi = List.fold_left Float.max neg_infinity xs;
      }

type result = {
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * metric) list;
  digest : string;
  quality : (string * float) list;
}

(* Failures of one run: an operation fails when any of its checks does. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable first : string option;
}

let tally () = { attempted = 0; failed = 0; errors = []; first = None }

let record t problems =
  t.attempted <- t.attempted + 1;
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    List.iter (fun e -> prerr_endline ("ledger: " ^ e)) problems;
    t.errors <- t.errors @ problems
  end

(* Every operation of a run does identical work, so it must reproduce
   the first operation's digest. *)
let repeatable t (o : W.outcome) =
  match t.first with
  | None ->
      t.first <- Some o.W.digest;
      []
  | Some d when d = o.W.digest -> []
  | Some _ -> [ "operation output differs from the run's first operation" ]

let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.)

let self_rss_mb () = Serve_load.peak_rss_mb (Unix.getpid ())

let make = function
  | "flow-corpus" -> W.flow_corpus
  | "train-alg1" -> W.train_alg1
  | "dco-alg2" -> W.dco_alg2
  | w -> invalid_arg ("unknown workload " ^ w)

(* Set the workload up, then run its first part once, untimed, so that
   lazy initialisation and heap growth are paid before timing. *)
let set_up sizes name ~offset =
  let parts = Array.of_list (make name sizes ~offset) in
  ignore (parts.(0) () : unit -> W.outcome);
  parts

(* ------------------------------------------------------------------ *)
(* Batch workloads                                                     *)
(* ------------------------------------------------------------------ *)

let sum_by_key kvs =
  List.fold_left
    (fun acc (k, v) ->
      (k, v +. Option.value ~default:0. (List.assoc_opt k acc)) :: List.remove_assoc k acc)
    [] kvs

(* An operation's outcome from its parts' outcomes. *)
let combine (os : W.outcome list) : W.outcome =
  {
    W.digest = W.hex (String.concat "," (List.map (fun (o : W.outcome) -> o.W.digest) os));
    problems = List.concat_map (fun (o : W.outcome) -> o.W.problems) os;
    quality = sum_by_key (List.concat_map (fun (o : W.outcome) -> o.W.quality) os);
  }

(* An operation's time: the sum over its parts of each part's median. *)
let op_time part_ms = Array.fold_left (fun a xs -> a +. Stats.median xs) 0. part_ms

let batch_untraced sizes name ~offset ~seconds =
  let setups = ref [] and parts = ref [||] in
  for _ = 1 to sizes.W.setup_reps do
    parts := [||];
    let p, ms = timed (fun () -> set_up sizes name ~offset) in
    setups := (ms /. 1000.) :: !setups;
    parts := p
  done;
  let parts = !parts in
  let part_ms = Array.make (Array.length parts) [] in
  let t = tally () and totals = ref [] and quality = ref [] in
  let t0 = now () in
  while now () -. t0 < seconds || List.length !totals < sizes.W.min_ops do
    let outcomes =
      Array.mapi
        (fun i (p : W.part) ->
          let finish, ms = timed p in
          part_ms.(i) <- ms :: part_ms.(i);
          finish ())
        parts
    in
    totals := Array.fold_left (fun a xs -> a +. List.hd xs) 0. part_ms :: !totals;
    let o = combine (Array.to_list outcomes) in
    quality := o.W.quality;
    record t (o.W.problems @ repeatable t o)
  done;
  let per_op = timing Stats.median !totals in
  {
    attempted = t.attempted;
    failed = t.failed;
    errors = t.errors;
    metrics =
      [
        ("op_ms", { per_op with value = op_time part_ms });
        ("setup_s", timing Stats.median !setups);
        ("peak_rss_mb", single (self_rss_mb ()));
      ];
    digest = Option.value ~default:"" t.first;
    quality = !quality;
  }

let counter_values () = List.map (fun (_, c) -> Obs.counter_value c) counters

let warm_counts () =
  (Obs.counter_value "route/warm/reused", Obs.counter_value "route/warm/ripped")

let write_layers path ~workload ~ops ~root_ms selfs metrics =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.Str workload);
                ("ops", Json.Num (float_of_int ops));
                ("traced_op_ms", Json.Num (root_ms /. float_of_int (max 1 ops)));
                ( "self_ms_per_op",
                  Json.Obj
                    (List.map
                       (fun (l, ms) -> (l, Json.Num (ms /. float_of_int (max 1 ops))))
                       (List.sort compare selfs)) );
                ( "metrics",
                  Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) metrics) );
              ]));
      output_char oc '\n')

(* [<layer>_ms] per [per] calls and [<layer>_share] of the time under
   the root span [top], for every layer in [layers]; the self times;
   and the root's time. *)
let layer_metrics top layers ~per =
  let selfs, top_ms = Layers.self_ms top in
  let self l = Option.value ~default:0. (List.assoc_opt l selfs) in
  let share ms = if top_ms > 0. then ms /. top_ms else 0. in
  ( List.concat_map
      (fun l -> [ (l ^ "_ms", self l /. float_of_int per); (l ^ "_share", share (self l)) ])
      layers,
    selfs,
    top_ms )

(* The traced run: one set-up, then each operation twice — untraced,
   and inside a [Layers.root] span with tracing on — until the window
   closes.  Both must give the same output bit for bit.  The program's
   counters count only while tracing is on, so they count traced work.
   On train-alg1, the training-step probe runs last. *)
let batch_traced sizes name ~offset ~seconds ~trace_dir =
  Obs.enable ();
  let parts = Obs.with_span Layers.setup_root (fun () -> set_up sizes name ~offset) in
  Obs.disable ();
  let dataset_build_ms =
    match Obs.span_stat_of (Layers.setup_root ^ "/dataset/build") with
    | Some s -> s.Obs.sp_total_ms
    | None -> 0.
  in
  let c0 = counter_values () and w0 = warm_counts () in
  let plain_ms = Array.make (Array.length parts) [] in
  let traced_ms = Array.make (Array.length parts) [] in
  let t = tally () and ops = ref 0 and quality = ref [] in
  let t0 = now () in
  while now () -. t0 < seconds || !ops = 0 do
    let pairs =
      Array.mapi
        (fun i (p : W.part) ->
          let finish, p_ms = timed p in
          let plain = finish () in
          Obs.enable ();
          let finish, t_ms = timed (fun () -> Obs.with_span Layers.root p) in
          Obs.disable ();
          let traced = finish () in
          plain_ms.(i) <- p_ms :: plain_ms.(i);
          traced_ms.(i) <- t_ms :: traced_ms.(i);
          (plain, traced))
        parts
    in
    let plain = combine (Array.to_list (Array.map fst pairs)) in
    let traced = combine (Array.to_list (Array.map snd pairs)) in
    incr ops;
    quality := plain.W.quality;
    record t
      (plain.W.problems @ repeatable t plain
      @
      if traced.W.digest = plain.W.digest then []
      else [ "traced output differs from the untraced output" ])
  done;
  let ops = !ops in
  let per_op v = float_of_int v /. float_of_int ops in
  let counts =
    List.map2 (fun (m, _) (a, b) -> (m, per_op (b - a))) counters
      (List.combine c0 (counter_values ()))
  in
  let reused, ripped =
    let r1, p1 = warm_counts () in
    (r1 - fst w0, p1 - snd w0)
  in
  let times, selfs, root_ms = layer_metrics Layers.root Layers.timed ~per:ops in
  let unattributed = Option.value ~default:0. (List.assoc_opt Layers.root selfs) in
  let probe =
    if name <> "train-alg1" then []
    else begin
      let step = W.unet_step_probe sizes ~offset in
      let steps = 10 * sizes.W.min_ops in
      Obs.enable ();
      for _ = 1 to steps do
        Obs.with_span Layers.probe_root step
      done;
      Obs.disable ();
      let m, _, _ = layer_metrics Layers.probe_root Layers.probed ~per:steps in
      m
    end
  in
  let metrics =
    times @ probe @ counts
    @ [
        ( "route.warm_reused_frac",
          if reused + ripped > 0 then float_of_int reused /. float_of_int (reused + ripped)
          else 0. );
        ("core.dataset_build_ms", dataset_build_ms);
        ("trace_overhead_pct", 100. *. ((op_time traced_ms /. op_time plain_ms) -. 1.));
        ("trace_coverage_pct", if root_ms > 0. then 100. *. (1. -. (unattributed /. root_ms)) else 0.);
      ]
    @ !quality
  in
  Obs.write_chrome_trace (Filename.concat trace_dir (name ^ ".trace.json"));
  write_layers
    (Filename.concat trace_dir (name ^ ".layers.json"))
    ~workload:name ~ops ~root_ms selfs metrics;
  {
    attempted = t.attempted;
    failed = t.failed;
    errors = t.errors;
    metrics = List.map (fun (k, v) -> (k, single v)) metrics;
    digest = Option.value ~default:"" t.first;
    quality = !quality;
  }

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

let serve_seed offset = 3 + offset

let serve_run sizes ~offset ~seconds ~reps =
  Serve_load.run ~dir:log_dir ~seed:(serve_seed offset) ~side:sizes.W.serve_hw
    ~connections:sizes.W.serve_connections ~warmup:sizes.W.serve_warmup ~reps
    ~seconds ~min_requests:(10 * sizes.W.min_ops)

let served (r : Serve_load.result) =
  List.filter (fun (s : Serve_load.sample) -> s.Serve_load.reply <> None) r.Serve_load.samples

let serve_tally (r : Serve_load.result) =
  let refused = List.length r.Serve_load.samples - List.length (served r) in
  let failed = refused + List.length r.Serve_load.problems in
  List.iter (fun e -> prerr_endline ("ledger: " ^ e)) r.Serve_load.problems;
  (List.length r.Serve_load.samples, failed)

let serve_untraced sizes ~offset ~seconds =
  let r = serve_run sizes ~offset ~seconds ~reps:sizes.W.setup_reps in
  let lat = List.map (fun (s : Serve_load.sample) -> s.Serve_load.lat_ms) (served r) in
  let attempted, failed = serve_tally r in
  {
    attempted;
    failed;
    errors = r.Serve_load.problems;
    metrics =
      [
        ("op_ms", timing Stats.median lat);
        ("setup_s", timing Stats.median r.Serve_load.setup_s);
        ("peak_rss_mb", single r.Serve_load.rss_mb);
      ];
    digest = r.Serve_load.digest;
    quality = [];
  }

let serve_traced sizes ~offset ~seconds ~trace_dir =
  let r = serve_run sizes ~offset ~seconds ~reps:1 in
  let ok = served r in
  let p50 f =
    match List.filter f ok with
    | [] -> 0.
    | l -> Stats.median (List.map (fun (s : Serve_load.sample) -> s.Serve_load.lat_ms) l)
  in
  let miss = p50 (fun s -> not s.Serve_load.hit) in
  let latencies = List.map (fun (s : Serve_load.sample) -> s.Serve_load.lat_ms) ok in
  let hits = List.length (List.filter (fun (s : Serve_load.sample) -> s.Serve_load.hit) ok) in
  let n_ok = max 1 (List.length ok) in
  let delta = r.Serve_load.stats_delta in
  (* replies in each whole second of the window; their median is
     steadier than a count over the window, which a slow stretch of the
     host moves *)
  let per_second = Array.make (int_of_float r.Serve_load.window_s) 0 in
  List.iter
    (fun (s : Serve_load.sample) ->
      let b = int_of_float s.Serve_load.done_s in
      if b < Array.length per_second then per_second.(b) <- per_second.(b) + 1)
    ok;
  let rps =
    if per_second = [||] then float_of_int n_ok /. r.Serve_load.window_s
    else Stats.median (Array.to_list (Array.map float_of_int per_second))
  in
  let reps = 5 * sizes.W.min_ops in
  let b1, b2, traced =
    Serve_load.local_batches ~seed:(serve_seed offset) ~side:sizes.W.serve_hw ~reps
  in
  let metrics =
    [
      ("nn.predict_batch1_ms", b1);
      ("nn.predict_batch2_ms", b2);
      ("serve.rps", rps);
      ("serve.p90_ms", Stats.percentile 0.9 latencies);
      ("serve.p99_ms", Stats.percentile 0.99 latencies);
      ("serve.miss_p50_ms", miss);
      ("serve.hit_p50_ms", p50 (fun s -> s.Serve_load.hit));
      ("serve.overhead_ms", miss -. b1);
      ("serve.cache_hit_frac", float_of_int hits /. float_of_int n_ok);
      ( "serve.batch_mean",
        if delta "batches" > 0. then delta "cache_misses" /. delta "batches" else 0. );
      ("serve.overloaded", delta "overloaded");
      ("trace_overhead_pct", 100. *. ((traced /. b1) -. 1.));
    ]
  in
  Obs.write_chrome_trace (Filename.concat trace_dir "serve-predict.trace.json");
  write_layers
    (Filename.concat trace_dir "serve-predict.layers.json")
    ~workload:"serve-predict" ~ops:reps ~root_ms:0. [] metrics;
  let attempted, failed = serve_tally r in
  {
    attempted;
    failed;
    errors = r.Serve_load.problems;
    metrics = List.map (fun (k, v) -> (k, single v)) metrics;
    digest = r.Serve_load.digest;
    quality = [];
  }

(* ------------------------------------------------------------------ *)
(* One workload: the contract's command                                *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let header ~seed ~seconds ~smoke sizes =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("dco3d_jobs", Json.Num (float_of_int (Pool.jobs ())));
      ("effective_jobs", Json.Num (float_of_int (Pool.effective_jobs ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds);
      ("sizes", Json.Str ((if smoke then "smoke " else "full ") ^ W.describe sizes));
    ]

let golden ~smoke ~seed workload digest =
  let table = if smoke then Golden.smoke else Golden.full in
  match List.assoc_opt workload table with
  | Some d when seed = 0 -> if d = digest then "match" else "moved"
  | _ -> "none"

let finite v = if Float.is_finite v then v else 0.

(* The result file ledger_check reads: a header and child results. *)
let write_results path header results =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_string (Json.Obj [ ("header", header); ("results", Json.Arr results) ]));
      output_char oc '\n')

let one ~workload ~seed ~seconds ~trace ~smoke ~trace_dir ~out =
  let sizes = if smoke then W.smoke else W.full in
  mkdir_p log_dir;
  if trace then mkdir_p trace_dir;
  let r =
    match (workload, trace) with
    | "serve-predict", false -> serve_untraced sizes ~offset:seed ~seconds
    | "serve-predict", true -> serve_traced sizes ~offset:seed ~seconds ~trace_dir
    | w, false -> batch_untraced sizes w ~offset:seed ~seconds
    | w, true -> batch_traced sizes w ~offset:seed ~seconds ~trace_dir
  in
  let wanted = if trace then per_layer else end_to_end in
  let value name =
    match List.assoc_opt name r.metrics with Some m -> m | None -> single 0.
  in
  let gold = golden ~smoke ~seed workload r.digest in
  (* every operation repeats the digest, so a golden mismatch fails them all *)
  let r =
    if gold <> "moved" then r
    else begin
      let e = Printf.sprintf "digest %s differs from the golden digest" r.digest in
      prerr_endline ("ledger: " ^ workload ^ " " ^ e);
      { r with failed = r.attempted; errors = r.errors @ [ e ] }
    end
  in
  let correct = r.failed = 0 && r.attempted > 0 in
  let detail =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("trace", Json.Bool trace);
        ("header", header ~seed ~seconds ~smoke sizes);
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int r.attempted));
        ("failed", Json.Num (float_of_int r.failed));
        ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.errors));
        ("digest", Json.Str r.digest);
        ("golden", Json.Str gold);
        ("quality", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.quality));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, unit) ->
                 let m = value name in
                 ( name,
                   Json.Obj
                     [
                       ("value", Json.Num (finite m.value));
                       ("unit", Json.Str unit);
                       ("n", Json.Num (float_of_int m.n));
                       ("min", Json.Num (finite m.lo));
                       ("max", Json.Num (finite m.hi));
                     ] ))
               wanted) );
      ]
  in
  Option.iter
    (fun path -> write_results path (header ~seed ~seconds ~smoke sizes) [ detail ])
    out;
  print_endline ("ledger-result " ^ Json.to_string detail);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int r.attempted));
            ("failed", Json.Num (float_of_int r.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit) ->
                     ( name,
                       Json.Obj
                         [ ("value", Json.Num (finite (value name).value)); ("unit", Json.Str unit) ] ))
                   wanted) );
          ]));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Every workload, one child process each                              *)
(* ------------------------------------------------------------------ *)

let detail_prefix = "ledger-result "

(* Run a child and return its detail object, after checking that its
   last line is the contract's result object with every metric. *)
let child ~workload ~trace args =
  let argv =
    Array.of_list (Sys.executable_name :: "--workload" :: workload :: args)
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let wanted = if trace then per_layer else end_to_end in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "exited with code %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "killed by signal %d" n);
  let detail =
    match !lines with
    | [] ->
        fail "printed nothing";
        Json.Null
    | last :: rest -> (
        (match Json.parse last with
        | exception Json.Parse_error e -> fail "last line is not JSON (%s)" e
        | j ->
            if Json.to_assoc j |> List.map fst <> [ "correct"; "attempted"; "failed"; "metrics" ]
            then fail "last line does not have exactly correct/attempted/failed/metrics";
            if Json.member "correct" j <> Json.Bool true then fail "reported incorrect output";
            let ms = Json.member "metrics" j in
            List.iter
              (fun (name, unit) ->
                let m = Json.member name ms in
                if Json.member "unit" m <> Json.Str unit
                   || not (Float.is_finite (Json.to_num (Json.member "value" m)))
                then fail "metric %s missing or malformed" name)
              wanted;
            if List.length (Json.to_assoc ms) <> List.length wanted then
              fail "unexpected metrics");
        match
          List.find_opt
            (fun l ->
              String.length l > String.length detail_prefix
              && String.sub l 0 (String.length detail_prefix) = detail_prefix)
            rest
        with
        | None ->
            fail "no ledger-result line";
            Json.Null
        | Some l -> (
            let body =
              String.sub l (String.length detail_prefix)
                (String.length l - String.length detail_prefix)
            in
            match Json.parse body with
            | j -> j
            | exception Json.Parse_error e ->
                fail "ledger-result line is not JSON (%s)" e;
                Json.Null))
  in
  (detail, List.rev !problems)

(* BENCHMARK.json must list exactly the workloads and metrics the
   ledger reports, in the same order and units. *)
let check_bench path =
  let j = Json.of_file path in
  let field key f = List.map f (Json.to_list (Json.member key j)) in
  let name m = Json.to_str (Json.member "name" m) in
  let metric m = (name m, Json.to_str (Json.member "unit" m)) in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some (path ^ ": " ^ what ^ " differ from the ledger's"))
    [
      (field "workloads" name = workloads, "workloads");
      (field "end_to_end" metric = end_to_end, "end-to-end metrics");
      (field "per_layer" metric = per_layer, "per-layer metrics");
    ]

let run_all ~only ~seed ~seconds ~trace_dir ~out ~smoke ~bench =
  let chosen = if only = [] then workloads else only in
  let common =
    [ "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds ]
    @ if smoke then [ "--smoke" ] else []
  in
  let results = ref [] in
  let failures = ref (List.rev (Option.fold ~none:[] ~some:check_bench bench)) in
  let go workload trace =
    let args =
      common
      @ [ "--trace"; (if trace then "1" else "0") ]
      @ match trace_dir with Some d when trace -> [ "--trace-dir"; d ] | _ -> []
    in
    let detail, problems = child ~workload ~trace args in
    List.iter
      (fun p -> failures := Printf.sprintf "%s%s: %s" workload (if trace then " (traced)" else "") p :: !failures)
      problems;
    if detail <> Json.Null then begin
      results := detail :: !results;
      List.iter
        (fun (name, m) ->
          Printf.printf "%-14s %-32s %16.6g %-8s n=%.0f\n%!" workload name
            (Json.to_num (Json.member "value" m))
            (Json.to_str (Json.member "unit" m))
            (Json.to_num (Json.member "n" m)))
        (Json.to_assoc (Json.member "metrics" detail));
      Printf.printf "%-14s %-32s %s (golden: %s)\n%!" workload "digest"
        (Json.to_str (Json.member "digest" detail))
        (Json.to_str (Json.member "golden" detail))
    end
  in
  List.iter
    (fun w ->
      go w false;
      if trace_dir <> None then go w true)
    chosen;
  let out =
    match out with
    | Some p -> p
    | None ->
        Filename.concat log_dir
          (Printf.sprintf "run-%d-%.0f.json" seed (Unix.gettimeofday ()))
  in
  write_results out
    (header ~seed ~seconds ~smoke (if smoke then W.smoke else W.full))
    (List.rev !results);
  Printf.printf "results written to %s\n" out;
  match !failures with
  | [] -> ()
  | l ->
      List.iter (fun f -> prerr_endline ("ledger: FAIL " ^ f)) (List.rev l);
      exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: ledger.exe --workload W --seed N --seconds S --trace 0|1 [--smoke] \
     [--trace-dir DIR] [--out FILE]\n\
    \       ledger.exe run [--workload W]... [--seed N] [--seconds S] [--trace \
     DIR] [--out FILE] [--smoke] [--bench BENCHMARK.json]\n\
     workloads: flow-corpus train-alg1 dco-alg2 serve-predict";
  exit 2

let () =
  (* One job unless the caller says otherwise, so the domain pool's
     parallel paths are not what the ledger times.  On a 2-vCPU host
     shared with other work, the quartile spread over five seeds was
     5% (train-alg1) and 10% (flow-corpus) at one job, 10% and 19% at
     two.  The serving daemon inherits the setting. *)
  if Sys.getenv_opt "DCO3D_JOBS" = None then Unix.putenv "DCO3D_JOBS" "1";
  let args = List.tl (Array.to_list Sys.argv) in
  let run_mode, args =
    match args with "run" :: rest -> (true, rest) | rest -> (false, rest)
  in
  let only = ref [] and seed = ref 0 and seconds = ref default_seconds in
  let trace = ref None and trace_dir = ref None and out = ref None in
  let smoke = ref false and bench = ref None in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
        only := !only @ [ w ];
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_arg n;
        parse rest
    | "--seconds" :: s :: rest ->
        (seconds :=
           match float_of_string_opt s with
           | Some f when f >= 0. -> f
           | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        trace := Some v;
        parse rest
    | "--trace-dir" :: d :: rest ->
        trace_dir := Some d;
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--bench" :: f :: rest when run_mode ->
        bench := Some f;
        parse rest
    | _ -> usage ()
  in
  parse args;
  if run_mode then begin
    let trace_dir =
      match !trace with
      | Some d -> Some d
      | None when !smoke -> Some (Filename.concat log_dir "smoke-trace")
      | None -> None
    in
    let seconds = if !smoke then 0. else !seconds in
    let bench =
      match !bench with
      | Some _ as b -> b
      | None -> if Sys.file_exists "BENCHMARK.json" then Some "BENCHMARK.json" else None
    in
    run_all ~only:!only ~seed:!seed ~seconds ~trace_dir ~out:!out ~smoke:!smoke ~bench
  end
  else
    match (!only, !trace) with
    | [ workload ], Some (("0" | "1") as t) ->
        one ~workload ~seed:!seed ~seconds:!seconds ~trace:(t = "1") ~smoke:!smoke
          ~trace_dir:(Option.value ~default:log_dir !trace_dir)
          ~out:!out
    | _ -> usage ()
