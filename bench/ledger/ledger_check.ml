(* ledger_check — compare sets of ledger results.

     ledger_check.exe [--bench BENCHMARK.json] A.json... [-- B.json...]

   Each file is a result file written by [ledger.exe run] (or by one
   workload run with --out).  For every (workload, metric) the check
   prints each set's median and quartiles and the spread (quartile
   distance over the median).  An end-to-end metric's spread is
   flagged "unresolved" when it exceeds the metric's bound in
   BENCHMARK.json; per-layer metrics (from traced runs) have no bound
   and are shown when non-zero.

   One set: exits 1 when any spread other than setup_s exceeds its
   bound — the benchmark's own repeatability condition.  Two sets:
   exits 1 when set B's median is worse than set A's by more than the
   bound.  Either way a failed run exits 1, and results whose headers
   differ in anything but the seed are refused (exit 2).  Digests that
   differ for the same workload and seed are reported, not failed:
   a change may move numerics on purpose. *)

type bound = { bound : float; lower_better : bool }

let load_bounds path =
  let j = Json.of_file path in
  List.map
    (fun m ->
      ( Json.to_str (Json.member "name" m),
        {
          bound = Json.to_num (Json.member "bound" m);
          lower_better = Json.member "better" m = Json.Str "lower";
        } ))
    (Json.to_list (Json.member "end_to_end" j))

let results_of path =
  match Json.of_file path with
  | j -> Json.to_list (Json.member "results" j)
  | exception (Json.Parse_error e | Sys_error e) ->
      Printf.eprintf "ledger_check: %s: %s\n" path e;
      exit 2

let without_seed h =
  List.filter (fun (k, _) -> k <> "seed") (Json.to_assoc h)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let bench, args =
    match args with
    | "--bench" :: b :: rest -> (b, rest)
    | rest -> ("BENCHMARK.json", rest)
  in
  let rec split acc = function
    | [] -> (List.rev acc, [])
    | "--" :: rest -> (List.rev acc, rest)
    | f :: rest -> split (f :: acc) rest
  in
  let a_files, b_files = split [] args in
  if a_files = [] then begin
    prerr_endline "usage: ledger_check.exe [--bench BENCHMARK.json] A.json... [-- B.json...]";
    exit 2
  end;
  let bounds = load_bounds bench in
  let a = List.concat_map results_of a_files in
  let b = List.concat_map results_of b_files in
  let all = a @ b in
  (match all with
  | [] ->
      prerr_endline "ledger_check: no results";
      exit 2
  | first :: _ ->
      let h0 = without_seed (Json.member "header" first) in
      List.iter
        (fun r ->
          if without_seed (Json.member "header" r) <> h0 then begin
            Printf.eprintf
              "ledger_check: refusing to compare: header %s differs from %s\n"
              (Json.to_string (Json.member "header" r))
              (Json.to_string (Json.member "header" first));
            exit 2
          end)
        all);
  let status = ref 0 in
  List.iter
    (fun r ->
      if Json.member "correct" r <> Json.Bool true then begin
        Printf.printf "FAILED RUN: %s seed %.0f: %s\n"
          (Json.to_str (Json.member "workload" r))
          (Json.to_num (Json.member "seed" (Json.member "header" r)))
          (Json.to_string (Json.member "errors" r));
        status := 1
      end)
    all;
  let untraced set = List.filter (fun r -> Json.member "trace" r = Json.Bool false) set in
  let of_workload w set =
    List.filter (fun r -> Json.to_str (Json.member "workload" r) = w) set
  in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> Json.to_str (Json.member "workload" r)) all)
  in
  let values set w name =
    List.filter_map
      (fun r ->
        match Json.member name (Json.member "metrics" r) with
        | Json.Null -> None
        | m -> Some (Json.to_num (Json.member "value" m)))
      (of_workload w set)
  in
  (* end-to-end metrics first, then the per-layer ones a traced run of
     the workload reported as non-zero *)
  let names w =
    let layer =
      List.concat_map
        (fun r -> List.map fst (Json.to_assoc (Json.member "metrics" r)))
        (List.filter (fun r -> Json.member "trace" r = Json.Bool true) (of_workload w a))
    in
    List.map fst bounds
    @ List.filter
        (fun n -> List.exists (fun v -> v <> 0.) (values a w n))
        (List.sort_uniq compare layer)
  in
  let describe xs =
    let q1, q2, q3 = Stats.quartiles xs in
    Printf.sprintf "n=%-2d median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.2f%%"
      (List.length xs) q2 q1 q3 (100. *. Stats.spread xs)
  in
  List.iter
    (fun w ->
      Printf.printf "%s\n" w;
      List.iter
        (fun name ->
          let va = values a w name and vb = values b w name in
          let bound = List.assoc_opt name bounds in
          let unresolved xs =
            match bound with
            | Some bd -> List.length xs >= 2 && Stats.spread xs > bd.bound
            | None -> false
          in
          let flag xs = if unresolved xs then " unresolved" else "" in
          if va <> [] then begin
            Printf.printf "  %-30s A %s%s%s\n" name (describe va)
              (match bound with
              | Some bd -> Printf.sprintf " (bound %.0f%%)" (100. *. bd.bound)
              | None -> "")
              (flag va);
            if b = [] then begin
              if name <> "setup_s" && unresolved va then status := 1
            end
            else if vb <> [] then begin
              let ma = Stats.median va and mb = Stats.median vb in
              let verdict =
                match bound with
                | Some bd ->
                    let worse =
                      if bd.lower_better then (mb -. ma) /. ma else (ma -. mb) /. ma
                    in
                    if worse > bd.bound then begin
                      status := 1;
                      "WORSE"
                    end
                    else "ok"
                | None -> ""
              in
              Printf.printf "  %-30s B %s%s  B vs A %+.2f%% %s\n" "" (describe vb)
                (flag vb)
                (100. *. (mb -. ma) /. ma)
                verdict
            end
          end)
        (names w))
    workloads;
  (* same workload and seed in both sets: outputs should agree *)
  let key r =
    ( Json.to_str (Json.member "workload" r),
      Json.to_num (Json.member "seed" (Json.member "header" r)) )
  in
  List.iter
    (fun ra ->
      List.iter
        (fun rb ->
          if key ra = key rb && Json.member "digest" ra <> Json.member "digest" rb then
            Printf.printf "note: %s seed %.0f: outputs moved (%s -> %s)\n" (fst (key ra))
              (snd (key ra))
              (Json.to_str (Json.member "digest" ra))
              (Json.to_str (Json.member "digest" rb)))
        (untraced b))
    (untraced a);
  exit !status
