(* The one on-disk store: magic+digest+rename framing for
   content-addressed cache files, and the bounded LRU [Store] the
   spill tier, the route cache and the corpus PPA store all persist
   through, so the corruption-handling discipline can't drift. *)

module Obs = Dco3d_obs.Obs

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let path_of ~dir ~suffix key =
  Filename.concat dir (Digest.to_hex (Digest.string key) ^ suffix)

(* Temp names carry a per-process sequence besides the pid: two threads
   writing the same key concurrently (e.g. two servers in one process
   sharing a spill directory, each spilling an eviction of that key)
   would otherwise share one temp path and interleave writes — the digest
   check downgrades that to a deleted entry, but the entry is still
   silently lost. *)
let tmp_seq = Atomic.make 0

let write_file ~magic ~path ~body =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  try
    let oc = open_out_bin tmp in
    (try
       output_string oc magic;
       output_string oc (Digest.string body);
       output_string oc body;
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Sys.rename tmp path;
    true
  with Sys_error _ | Unix.Unix_error _ ->
    (* Best-effort: a full or read-only disk must not break the caller. *)
    (try Sys.remove tmp with Sys_error _ -> ());
    false

let discard path = try Sys.remove path with Sys_error _ -> ()

let read_file ~magic ~path =
  if not (Sys.file_exists path) then None
  else
    match
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let m = really_input_string ic (String.length magic) in
      if m <> magic then raise Exit;
      let digest = really_input_string ic (String.length (Digest.string "")) in
      let blen = in_channel_length ic - pos_in ic in
      let body = really_input_string ic blen in
      if Digest.string body <> digest then raise Exit;
      body
    with
    | body -> Some body
    | exception (Exit | End_of_file | Failure _ | Sys_error _) ->
        (* Truncated, corrupted, foreign, or unreadable: drop it so the
           next write can install a good copy. *)
        discard path;
        None

(* The [suffix] file names in [dir]; none if it is unreadable. *)
let entries ~dir ~suffix =
  match Sys.readdir dir with
  | names -> List.filter (fun e -> Filename.check_suffix e suffix) (Array.to_list names)
  | exception Sys_error _ -> []

let touch path =
  try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ()

(* LRU is by mtime: [touch] on read hits keeps hot entries young, so
   the oldest files are the coldest.  Eviction works on file names
   alone — a corrupt or foreign [suffix] file still counts against the
   cap and still gets unlinked, so a directory full of damaged
   survivors cannot pin the cache above its bound forever. *)
let evict_lru ~dir ~suffix ~max_entries =
  let names = entries ~dir ~suffix in
  (* Under the cap (the common case) this costs one readdir; only a
     directory past it pays a stat per entry. *)
  if List.length names <= max_entries then 0
  else
    let aged =
      List.filter_map
        (fun e ->
          let path = Filename.concat dir e in
          match Unix.stat path with
          | st -> Some (st.Unix.st_mtime, path)
          | exception Unix.Unix_error _ -> None)
        names
    in
    (* oldest first; path tie-break keeps the order deterministic when
       a burst of writes lands within one mtime granule *)
    let doomed = List.length aged - max_entries in
    List.sort compare aged
    |> List.filteri (fun i _ -> i < doomed)
    |> List.fold_left
         (fun evicted (_, path) ->
           match Sys.remove path with
           | () -> evicted + 1
           | exception Sys_error _ -> evicted)
         0

(* The single encoding seam: every store body is a [Marshal] of
   [(key, value)].  Swapping the codec (e.g. for an explicit,
   type-checked one) changes only these two functions. *)
let encode key v = Marshal.to_string (key, v) []
let decode body : string * 'v = Marshal.from_string body 0

module Store = struct
  type 'v t = {
    dir : string;
    magic : string;
    suffix : string;
    max_entries : int;
    slack : int;
    puts : int Atomic.t;  (* this handle's puts, for the eviction period *)
    c_hit : Obs.counter;
    c_miss : Obs.counter;
    c_evicted : Obs.counter;
  }

  let default_max_entries = 4096

  (* Hits, misses and evictions are functions of the request stream
     alone, so all three counters are jobs-invariant. *)
  let create ~magic ~suffix ~counters ?(max_entries = default_max_entries)
      dir =
    mkdir_p dir;
    let max_entries = max 1 max_entries in
    {
      dir;
      magic;
      suffix;
      max_entries;
      slack = max_entries / 16;
      puts = Atomic.make 0;
      c_hit = Obs.counter (counters ^ "_hit");
      c_miss = Obs.counter (counters ^ "_miss");
      c_evicted = Obs.counter (counters ^ "_evicted");
    }

  let dir t = t.dir
  let max_entries t = t.max_entries

  let find t key =
    let path = path_of ~dir:t.dir ~suffix:t.suffix key in
    let found =
      match read_file ~magic:t.magic ~path with
      | None -> None
      | Some body -> (
          match decode body with
          | stored_key, v when stored_key = key ->
              touch path;
              Some v
          | _ | (exception _) ->
              (* Digest-valid but undecodable (a body shorter than
                 Marshal's header raises [Invalid_argument], not
                 [Failure]) or stored under another key (an MD5
                 collision, a renamed file): drop it so the next write
                 can install a good copy. *)
              discard path;
              None)
    in
    Obs.incr (if Option.is_some found then t.c_hit else t.c_miss);
    found

  let put t key v =
    let ok =
      write_file ~magic:t.magic
        ~path:(path_of ~dir:t.dir ~suffix:t.suffix key)
        ~body:(encode key v)
    in
    (* Eviction is amortized: the pass (a readdir, plus a stat per
       entry once over the target) runs on this handle's first put and
       every [slack]-th put after it, and trims to [max_entries -
       slack], so one writer never holds more than [max_entries] files
       yet pays the directory scan only once per [slack] writes.  Caps
       below 16 have no slack and scan on every put. *)
    if Atomic.fetch_and_add t.puts 1 mod max 1 t.slack = 0 then begin
      let evicted =
        evict_lru ~dir:t.dir ~suffix:t.suffix
          ~max_entries:(t.max_entries - t.slack)
      in
      if evicted > 0 then Obs.incr ~by:evicted t.c_evicted
    end;
    ok

  let count t = List.length (entries ~dir:t.dir ~suffix:t.suffix)
end
