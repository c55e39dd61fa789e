(* Flow-wide observability: spans, counters, gauges, histograms.

   Design constraints, in order:

   1. A disabled probe must cost a few nanoseconds and allocate
      nothing: every probe starts with one atomic load of [enabled_]
      and returns immediately when it is false.  The whole subsystem is
      off unless DCO3D_TRACE/DCO3D_PROFILE are set or a caller enables
      it programmatically.

   2. Counters must aggregate correctly when bumped concurrently from
      pool worker domains, and totals must be a function of the work
      performed — never of DCO3D_JOBS.  Counters are plain atomics;
      span aggregation and the event buffer sit behind one mutex
      (spans mark stages, not inner loops, so the lock is cold).

   3. Span paths form a stage tree.  Nesting is tracked per thread,
      so a span opened inside another on the same thread extends its
      path ("flow" -> "flow/place" -> "flow/place/cg_solve") while
      spans on pool workers or on a server's connection threads start
      fresh roots and land on their own trace track.  High-cardinality
      segments ("iter:17", "sample:3", "net:812") are rolled up to
      "iter:*" in the aggregated profile; the raw trace keeps exact
      names. *)

(* ------------------------------------------------------------------ *)
(* Gating                                                              *)
(* ------------------------------------------------------------------ *)

let enabled_ = Atomic.make false
let enabled () = Atomic.get enabled_
let enable () = Atomic.set enabled_ true
let disable () = Atomic.set enabled_ false

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* Microseconds since the module loaded.  [Unix.gettimeofday] is the
   best wall clock the stdlib offers; the CAS clamp below makes the
   reported timeline monotonic even if the system clock steps
   backwards, which keeps trace events well-formed. *)
let t0 = Unix.gettimeofday ()
let last_us = Atomic.make 0.

let now_us () =
  let t = (Unix.gettimeofday () -. t0) *. 1e6 in
  let rec clamp () =
    let l = Atomic.get last_us in
    if t >= l then if Atomic.compare_and_set last_us l t then t else clamp ()
    else l
  in
  clamp ()

(* ------------------------------------------------------------------ *)
(* Span recording                                                      *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_path : string;
  ev_tid : int;
  ev_ts_us : float;
  ev_dur_us : float;
  ev_args : (string * string) list;
}

type span_stat = {
  sp_path : string;
  sp_count : int;
  sp_total_ms : float;
  sp_min_ms : float;
  sp_max_ms : float;
}

type agg = {
  mutable a_count : int;
  mutable a_total_us : float;
  mutable a_min_us : float;
  mutable a_max_us : float;
}

(* One mutex guards the event buffer, the span aggregates and the
   histogram cells.  Spans and histogram observations are per-stage /
   per-iteration probes, so contention is negligible. *)
let stats_mutex = Mutex.create ()
let events : event list ref = ref []
let n_events = ref 0
let dropped_events = ref 0

(* Bounds trace memory on long runs (a multi-hour flow with per-net
   spans); the aggregates keep counting past the cap. *)
let max_events = 200_000

let aggregates : (string, agg) Hashtbl.t = Hashtbl.create 64

let is_digits s lo =
  let n = String.length s in
  lo < n
  &&
  let ok = ref true in
  for i = lo to n - 1 do
    match s.[i] with '0' .. '9' -> () | _ -> ok := false
  done;
  !ok

(* "dco/iter:17" -> "dco/iter:*" ; non-numeric suffixes are kept. *)
let rollup_segment seg =
  match String.rindex_opt seg ':' with
  | Some i when is_digits seg (i + 1) -> String.sub seg 0 (i + 1) ^ "*"
  | _ -> seg

let rollup_path path =
  if String.contains path ':' then
    String.concat "/" (List.map rollup_segment (String.split_on_char '/' path))
  else path

let record_span ~path ~tid ~ts_us ~dur_us ~args =
  Mutex.lock stats_mutex;
  (let key = rollup_path path in
   (match Hashtbl.find_opt aggregates key with
   | Some a ->
       a.a_count <- a.a_count + 1;
       a.a_total_us <- a.a_total_us +. dur_us;
       if dur_us < a.a_min_us then a.a_min_us <- dur_us;
       if dur_us > a.a_max_us then a.a_max_us <- dur_us
   | None ->
       Hashtbl.replace aggregates key
         { a_count = 1; a_total_us = dur_us; a_min_us = dur_us; a_max_us = dur_us });
   if !n_events < max_events then begin
     events :=
       { ev_path = path; ev_tid = tid; ev_ts_us = ts_us; ev_dur_us = dur_us;
         ev_args = args }
       :: !events;
     incr n_events
   end
   else incr dropped_events);
  Mutex.unlock stats_mutex

(* Open span paths per thread, innermost first.  Systhreads share
   their domain's DLS, so the stacks are keyed by thread id (unique
   across domains); a thread's entry goes when its last span closes,
   so the table holds only threads inside a span. *)
let stacks : (int, string list) Hashtbl.t = Hashtbl.create 16
let stacks_mutex = Mutex.create ()

let set_stack tid = function
  | [] -> Hashtbl.remove stacks tid
  | stack -> Hashtbl.replace stacks tid stack

let with_span ?(args = []) name f =
  if not (Atomic.get enabled_) then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let path, parent =
      Mutex.protect stacks_mutex (fun () ->
          let parent = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
          let path = match parent with [] -> name | p :: _ -> p ^ "/" ^ name in
          set_stack tid (path :: parent);
          (path, parent))
    in
    let ts = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let dur = now_us () -. ts in
        Mutex.protect stacks_mutex (fun () -> set_stack tid parent);
        record_span ~path ~tid ~ts_us:ts ~dur_us:dur ~args)
      f
  end

(* ------------------------------------------------------------------ *)
(* Counters, gauges, histograms                                        *)
(* ------------------------------------------------------------------ *)

type counter = int Atomic.t
type gauge = float Atomic.t
type hist_cell = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}
type histogram = hist_cell

(* Interning tables; the mutex is only taken at handle-creation and
   report time, never on the hot increment path. *)
let intern_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let intern table make name =
  Mutex.lock intern_mutex;
  let cell =
    match Hashtbl.find_opt table name with
    | Some c -> c
    | None ->
        let c = make () in
        Hashtbl.replace table name c;
        c
  in
  Mutex.unlock intern_mutex;
  cell

let counter name = intern counters (fun () -> Atomic.make 0) name

let incr ?(by = 1) c =
  if Atomic.get enabled_ then ignore (Atomic.fetch_and_add c by)

let counter_value name =
  match Hashtbl.find_opt counters name with
  | Some c -> Atomic.get c
  | None -> 0

let gauge name = intern gauges (fun () -> Atomic.make nan) name
let set_gauge g v = if Atomic.get enabled_ then Atomic.set g v

let gauge_value name =
  match Hashtbl.find_opt gauges name with
  | Some g -> Atomic.get g
  | None -> nan

let histogram name =
  intern histograms
    (fun () -> { h_count = 0; h_sum = 0.; h_min = infinity; h_max = neg_infinity })
    name

let observe h v =
  if Atomic.get enabled_ then begin
    Mutex.lock stats_mutex;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    Mutex.unlock stats_mutex
  end

let histogram_stats name =
  match Hashtbl.find_opt histograms name with
  | Some h when h.h_count > 0 -> Some (h.h_count, h.h_sum, h.h_min, h.h_max)
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let stage_profile () =
  Mutex.lock stats_mutex;
  let rows =
    Hashtbl.fold
      (fun path a acc ->
        {
          sp_path = path;
          sp_count = a.a_count;
          sp_total_ms = a.a_total_us /. 1e3;
          sp_min_ms = a.a_min_us /. 1e3;
          sp_max_ms = a.a_max_us /. 1e3;
        }
        :: acc)
      aggregates []
  in
  Mutex.unlock stats_mutex;
  List.sort
    (fun a b ->
      match compare b.sp_total_ms a.sp_total_ms with
      | 0 -> compare a.sp_path b.sp_path
      | c -> c)
    rows

let span_stat_of path =
  List.find_opt (fun s -> s.sp_path = path) (stage_profile ())

let span_events () =
  Mutex.lock stats_mutex;
  let n = !n_events in
  Mutex.unlock stats_mutex;
  n

let sorted_bindings table value =
  Mutex.lock intern_mutex;
  let rows = Hashtbl.fold (fun k c acc -> (k, value c) :: acc) table [] in
  Mutex.unlock intern_mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) rows

let profile_table () =
  let buf = Buffer.create 2048 in
  let spans = stage_profile () in
  if spans <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-44s %8s %12s %10s %10s %10s\n" "span" "calls"
         "total ms" "mean ms" "min ms" "max ms");
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "%-44s %8d %12.2f %10.3f %10.3f %10.3f\n" s.sp_path
             s.sp_count s.sp_total_ms
             (s.sp_total_ms /. float_of_int (max 1 s.sp_count))
             s.sp_min_ms s.sp_max_ms))
      spans
  end;
  let counters_rows =
    List.filter (fun (_, v) -> v <> 0) (sorted_bindings counters Atomic.get)
  in
  if counters_rows <> [] then begin
    Buffer.add_string buf "\ncounters:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-42s %12d\n" name v))
      counters_rows
  end;
  let gauge_rows =
    List.filter
      (fun (_, v) -> not (Float.is_nan v))
      (sorted_bindings gauges Atomic.get)
  in
  if gauge_rows <> [] then begin
    Buffer.add_string buf "\ngauges:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-42s %12g\n" name v))
      gauge_rows
  end;
  let hist_rows =
    List.filter
      (fun (_, h) -> h.h_count > 0)
      (sorted_bindings histograms Fun.id)
  in
  if hist_rows <> [] then begin
    Buffer.add_string buf "\nhistograms:\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-42s %8s %12s %10s %10s %10s\n" "name" "count" "sum"
         "mean" "min" "max");
    List.iter
      (fun (name, h) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-42s %8d %12.3f %10.3f %10.3f %10.3f\n" name
             h.h_count h.h_sum
             (h.h_sum /. float_of_int (max 1 h.h_count))
             h.h_min h.h_max))
      hist_rows
  end;
  (if !dropped_events > 0 then
     Buffer.add_string buf
       (Printf.sprintf "\n(trace buffer full: %d span events dropped)\n"
          !dropped_events));
  Buffer.contents buf

let write_profile path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (profile_table ()))

(* ------------------------------------------------------------------ *)
(* Chrome trace sink                                                   *)
(* ------------------------------------------------------------------ *)

(* Minimal JSON string escaping (names are span paths and arg strings
   we emit ourselves, but a netlist design name could contain
   anything). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_chrome_trace path =
  Mutex.lock stats_mutex;
  let evs = List.rev !events in
  Mutex.unlock stats_mutex;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      let first = ref true in
      let emit line =
        if !first then first := false else output_string oc ",\n";
        output_string oc line
      in
      List.iter
        (fun e ->
          let args =
            match e.ev_args with
            | [] -> ""
            | kvs ->
                let fields =
                  List.map
                    (fun (k, v) ->
                      Printf.sprintf "\"%s\":\"%s\"" (json_escape k)
                        (json_escape v))
                    kvs
                in
                Printf.sprintf ",\"args\":{%s}" (String.concat "," fields)
          in
          (* span events use the leaf name; the full path goes into the
             category so the viewer can filter on it *)
          let leaf =
            match String.rindex_opt e.ev_path '/' with
            | Some i ->
                String.sub e.ev_path (i + 1) (String.length e.ev_path - i - 1)
            | None -> e.ev_path
          in
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":%d%s}"
               (json_escape leaf) (json_escape e.ev_path) e.ev_ts_us
               e.ev_dur_us e.ev_tid args))
        evs;
      (* final counter totals as Chrome counter samples *)
      let ts = now_us () in
      List.iter
        (fun (name, v) ->
          if v <> 0 then
            emit
              (Printf.sprintf
                 "{\"name\":\"%s\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":%.1f,\"pid\":1,\"args\":{\"value\":%d}}"
                 (json_escape name) ts v))
        (sorted_bindings counters Atomic.get);
      output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n")

(* ------------------------------------------------------------------ *)
(* Reset (tests)                                                       *)
(* ------------------------------------------------------------------ *)

let reset () =
  Mutex.lock stats_mutex;
  events := [];
  n_events := 0;
  dropped_events := 0;
  Hashtbl.reset aggregates;
  Mutex.unlock stats_mutex;
  Mutex.lock intern_mutex;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
  Hashtbl.iter (fun _ g -> Atomic.set g nan) gauges;
  Hashtbl.iter
    (fun _ h ->
      h.h_count <- 0;
      h.h_sum <- 0.;
      h.h_min <- infinity;
      h.h_max <- neg_infinity)
    histograms;
  Mutex.unlock intern_mutex

(* ------------------------------------------------------------------ *)
(* Exit sinks + environment gating                                     *)
(* ------------------------------------------------------------------ *)

let trace_path : string option ref = ref None
let profile_dest : string option ref = ref None
let at_exit_registered = ref false

let flush_sinks () =
  (match !trace_path with Some p -> write_chrome_trace p | None -> ());
  match !profile_dest with
  | Some ("1" | "true" | "stderr") ->
      let table = profile_table () in
      if table <> "" then (
        prerr_endline "--- dco3d stage profile ---";
        prerr_string table)
  | Some path -> write_profile path
  | None -> ()

let register_at_exit () =
  if not !at_exit_registered then begin
    at_exit_registered := true;
    Stdlib.at_exit flush_sinks
  end

let set_trace_path p =
  trace_path := Some p;
  enable ();
  register_at_exit ()

let set_profile_dest d =
  profile_dest := Some d;
  enable ();
  register_at_exit ()

let () =
  (match Sys.getenv_opt "DCO3D_TRACE" with
  | Some p when p <> "" && p <> "0" -> set_trace_path p
  | Some _ | None -> ());
  match Sys.getenv_opt "DCO3D_PROFILE" with
  | Some d when d <> "" && d <> "0" -> set_profile_dest d
  | Some _ | None -> ()
