(* Tests for the observability subsystem (lib/obs): span nesting and
   rollup, counter aggregation under pool parallelism, disabled-mode
   no-op behavior, and Chrome-trace JSON well-formedness.

   The obs state is global, so every test starts from [Obs.reset] and
   restores the disabled default on the way out. *)

module Obs = Dco3d_obs.Obs
module Pool = Dco3d_parallel.Pool

let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let with_jobs n f =
  Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

let find_stat path =
  List.find_opt
    (fun s -> s.Obs.sp_path = path)
    (Obs.stage_profile ())

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_obs (fun () ->
      Obs.with_span "outer" (fun () ->
          Obs.with_span "inner" (fun () -> ());
          Obs.with_span "inner" (fun () -> ()));
      Obs.with_span "outer" (fun () -> ());
      let outer = Option.get (find_stat "outer") in
      let inner = Option.get (find_stat "outer/inner") in
      Alcotest.(check int) "outer count" 2 outer.Obs.sp_count;
      Alcotest.(check int) "inner count" 2 inner.Obs.sp_count;
      Alcotest.(check bool) "no bare inner" true (find_stat "inner" = None);
      Alcotest.(check int) "4 raw events" 4 (Obs.span_events ()))

let test_span_ordering () =
  (* a parent's total covers its children; the profile sorts by
     decreasing total *)
  with_obs (fun () ->
      Obs.with_span "parent" (fun () ->
          Obs.with_span "child" (fun () -> Unix.sleepf 0.002));
      let parent = Option.get (find_stat "parent") in
      let child = Option.get (find_stat "parent/child") in
      Alcotest.(check bool) "parent >= child" true
        (parent.Obs.sp_total_ms >= child.Obs.sp_total_ms);
      match Obs.stage_profile () with
      | first :: _ ->
          Alcotest.(check string) "sorted by total" "parent" first.Obs.sp_path
      | [] -> Alcotest.fail "empty profile")

let test_span_rollup () =
  with_obs (fun () ->
      for i = 0 to 4 do
        Obs.with_span (Printf.sprintf "route/net:%d" i) (fun () -> ())
      done;
      Obs.with_span "route/net:final" (fun () -> ());
      let rolled = Option.get (find_stat "route/net:*") in
      Alcotest.(check int) "numeric ids roll up" 5 rolled.Obs.sp_count;
      Alcotest.(check bool) "non-numeric id kept" true
        (find_stat "route/net:final" <> None))

let test_span_passes_result_and_exn () =
  with_obs (fun () ->
      Alcotest.(check int) "result" 41 (Obs.with_span "s" (fun () -> 41));
      (try Obs.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
      (* the span closed despite the exception, and the stack unwound *)
      Alcotest.(check bool) "boom recorded" true (find_stat "boom" <> None);
      Obs.with_span "after" (fun () -> ());
      Alcotest.(check bool) "stack unwound" true (find_stat "after" <> None))

(* Two threads of one domain with overlapping "conn" spans: A opens,
   B opens while A's is open, A closes first.  Each span is a root on
   its own thread, neither leaves anything open behind it, and each
   thread lands on its own trace track. *)
let test_span_threads () =
  with_obs (fun () ->
      let step = ref 0 and m = Mutex.create () and cv = Condition.create () in
      let set s =
        Mutex.protect m (fun () ->
            step := s;
            Condition.broadcast cv)
      in
      let await s =
        Mutex.protect m (fun () ->
            while !step < s do
              Condition.wait cv m
            done)
      in
      let a =
        Thread.create
          (fun () ->
            Obs.with_span "conn" (fun () ->
                set 1;
                await 2);
            set 3)
          ()
      in
      let b =
        Thread.create
          (fun () ->
            await 1;
            Obs.with_span "conn" (fun () ->
                set 2;
                await 3))
          ()
      in
      Thread.join a;
      Thread.join b;
      Obs.with_span "after" (fun () -> ());
      Alcotest.(check bool) "no conn/conn" true (find_stat "conn/conn" = None);
      Alcotest.(check bool) "no conn/after" true (find_stat "conn/after" = None);
      Alcotest.(check (option int)) "two conn roots" (Some 2)
        (Option.map (fun s -> s.Obs.sp_count) (find_stat "conn"));
      Alcotest.(check bool) "after is a root" true (find_stat "after" <> None);
      let path = Filename.temp_file "dco3d_threads" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Obs.write_chrome_trace path;
          let tids =
            In_channel.with_open_bin path In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (String.starts_with ~prefix:"{\"name\":\"conn\"")
            |> List.filter_map (fun event ->
                   String.split_on_char ',' event
                   |> List.find_map (fun field ->
                          Scanf.sscanf_opt field "\"tid\":%d" Fun.id))
            |> List.sort_uniq compare
          in
          Alcotest.(check int) "one trace track per thread" 2 (List.length tids)))

(* ------------------------------------------------------------------ *)
(* Counters under parallelism                                          *)
(* ------------------------------------------------------------------ *)

let count_with_jobs jobs =
  with_jobs jobs (fun () ->
      with_obs (fun () ->
          let c = Obs.counter "test/work_items" in
          Pool.parallel_for 0 1000 (fun _ -> Obs.incr c);
          let chunks0 = Obs.counter_value "pool/chunks" in
          Pool.for_chunks ~chunk:7 0 500 (fun lo hi -> Obs.incr ~by:(hi - lo) c);
          ( Obs.counter_value "test/work_items",
            Obs.counter_value "pool/chunks" - chunks0 )))

let test_counters_jobs_invariant () =
  let total1, chunks1 = count_with_jobs 1 in
  let total4, chunks4 = count_with_jobs 4 in
  Alcotest.(check int) "jobs=1 total" 1500 total1;
  Alcotest.(check int) "jobs=4 agrees" total1 total4;
  (* the chunk decomposition is a function of the range alone *)
  Alcotest.(check int) "chunk count jobs-invariant" chunks1 chunks4;
  Alcotest.(check int) "for_chunks ~chunk:7 over 500" ((500 + 6) / 7) chunks4

let test_gauges_and_histograms () =
  with_obs (fun () ->
      let g = Obs.gauge "test/level" in
      Obs.set_gauge g 2.5;
      Obs.set_gauge g 4.0;
      Alcotest.(check (float 0.)) "last write wins" 4.0
        (Obs.gauge_value "test/level");
      Alcotest.(check bool) "unknown gauge is nan" true
        (Float.is_nan (Obs.gauge_value "test/no_such"));
      let h = Obs.histogram "test/sizes" in
      List.iter (fun v -> Obs.observe h v) [ 3.; 1.; 2. ];
      match Obs.histogram_stats "test/sizes" with
      | Some (count, sum, mn, mx) ->
          Alcotest.(check int) "count" 3 count;
          Alcotest.(check (float 1e-12)) "sum" 6. sum;
          Alcotest.(check (float 0.)) "min" 1. mn;
          Alcotest.(check (float 0.)) "max" 3. mx
      | None -> Alcotest.fail "histogram missing")

(* ------------------------------------------------------------------ *)
(* Disabled mode                                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  Obs.reset ();
  Obs.disable ();
  let c = Obs.counter "test/disabled_counter" in
  let h = Obs.histogram "test/disabled_hist" in
  let g = Obs.gauge "test/disabled_gauge" in
  Obs.with_span "test/disabled_span" (fun () ->
      Obs.incr c;
      Obs.observe h 1.;
      Obs.set_gauge g 1.);
  Alcotest.(check int) "counter untouched" 0
    (Obs.counter_value "test/disabled_counter");
  Alcotest.(check bool) "gauge untouched" true
    (Float.is_nan (Obs.gauge_value "test/disabled_gauge"));
  Alcotest.(check bool) "no histogram" true
    (Obs.histogram_stats "test/disabled_hist" = None);
  Alcotest.(check int) "no span events" 0 (Obs.span_events ());
  Alcotest.(check (list reject)) "empty profile" [] (Obs.stage_profile ())

(* ------------------------------------------------------------------ *)
(* Chrome-trace JSON                                                   *)
(* ------------------------------------------------------------------ *)

(* Minimal JSON validator: enough grammar to prove the export is
   well-formed (balanced structure, terminated strings, no trailing
   commas) without an external dependency. *)
let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail "value expected"
  and literal lit =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then pos := !pos + String.length lit
    else fail ("expected " ^ lit)
  and number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail "number expected"
  and string_lit () =
    expect '"';
    let closed = ref false in
    while not !closed do
      if !pos >= n then fail "unterminated string";
      (match s.[!pos] with
      | '"' -> closed := true
      | '\\' -> incr pos (* skip the escaped char *)
      | _ -> ());
      incr pos
    done
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let continue_ = ref true in
      while !continue_ do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
            incr pos;
            continue_ := false
        | _ -> fail "',' or '}' expected"
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let continue_ = ref true in
      while !continue_ do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
            incr pos;
            continue_ := false
        | _ -> fail "',' or ']' expected"
      done
    end
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_chrome_trace_wellformed () =
  with_obs (fun () ->
      Obs.with_span "flow" ~args:[ ("design", "DMA \"quoted\"\n") ] (fun () ->
          Obs.with_span "place" (fun () -> ());
          Obs.with_span "route" (fun () -> ()));
      let c = Obs.counter "test/trace_counter" in
      Obs.incr ~by:3 c;
      let path = Filename.temp_file "dco3d_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Obs.write_chrome_trace path;
          let s = read_file path in
          (match validate_json s with
          | () -> ()
          | exception Failure msg -> Alcotest.fail msg);
          let contains needle =
            let nh = String.length s and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub s i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
          Alcotest.(check bool) "has complete events" true (contains "\"ph\":\"X\"");
          Alcotest.(check bool) "span paths in cat" true (contains "flow/place");
          Alcotest.(check bool) "args escaped" true (contains "DMA \\\"quoted\\\"\\n");
          Alcotest.(check bool) "counter sample" true
            (contains "test/trace_counter")))

let test_profile_table_renders () =
  with_obs (fun () ->
      Obs.with_span "stage" (fun () -> ());
      Obs.incr (Obs.counter "test/table_counter");
      let table = Obs.profile_table () in
      let contains needle =
        let nh = String.length table and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub table i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "mentions span" true (contains "stage");
      Alcotest.(check bool) "mentions counter" true
        (contains "test/table_counter"))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "span ordering" `Quick test_span_ordering;
        Alcotest.test_case "span rollup" `Quick test_span_rollup;
        Alcotest.test_case "span result/exception" `Quick
          test_span_passes_result_and_exn;
        Alcotest.test_case "span stacks per thread" `Quick test_span_threads;
        Alcotest.test_case "counters jobs-invariant" `Quick
          test_counters_jobs_invariant;
        Alcotest.test_case "gauges and histograms" `Quick
          test_gauges_and_histograms;
        Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
        Alcotest.test_case "chrome trace well-formed" `Quick
          test_chrome_trace_wellformed;
        Alcotest.test_case "profile table" `Quick test_profile_table_renders;
      ] );
  ]
