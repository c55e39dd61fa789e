(* The one on-disk store (Framing.Store) behind the serving spill, the
   route cache and the corpus PPA store.

   Load-bearing properties:

   - an entry round-trips verbatim (floats and tensors bit-exact) and
     survives re-opening the directory;
   - every damaged entry — flipped byte, truncation, foreign stored
     key, empty file, a digest-valid body Marshal cannot decode — is a
     miss that deletes the file and never raises, and the next put
     repopulates it;
   - the store is bounded LRU: puts evict the oldest-mtime entries past
     the cap, a hit refreshes its entry, corrupt survivors age out like
     live entries and files with another suffix are left alone;
   - eviction is amortized over cap / 16 puts, yet a writer never
     leaves more than the cap on disk, and a re-opened handle trims
     on its first put;
   - hits, misses and evictions land on the <counters>_* Obs counters;
   - the files keep the layout  magic | MD5(body) | Marshal (key, value)
     under MD5-hex(key) ^ suffix, so existing cache directories keep
     hitting. *)

module Framing = Dco3d_framing.Framing
module Store = Framing.Store
module Obs = Dco3d_obs.Obs
module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Corpus = Dco3d_corpus.Corpus

let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dco3d_store_test_%d_%d" (Unix.getpid ()) !n)
    in
    (* fresh every time: a leftover from a crashed run must not leak
       hits into this one *)
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    d

let magic = "DCO3D-TEST-V1"
let suffix = ".t"

type value = string * float array

let open_store ?max_entries dir : value Store.t =
  Store.create ~magic ~suffix ~counters:"test/store" ?max_entries dir

let value i : value =
  (Printf.sprintf "v%d" i, [| float_of_int i; 0.1 *. float_of_int i; -0.; 1e-300 |])

let value_t = Alcotest.(option (pair string (array (float 0.))))
let entry st key = Framing.path_of ~dir:(Store.dir st) ~suffix key
let counter name = Obs.counter_value ("test/store_" ^ name)

let write_raw path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

(* A framed file written by hand: magic | MD5(body) | body. *)
let write_frame ~magic path body =
  write_raw path (magic ^ Digest.string body ^ body)

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let check_bits what expected got =
  Alcotest.(check (array int64))
    what
    (Array.map Int64.bits_of_float expected.T.data)
    (Array.map Int64.bits_of_float got.T.data)

(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_obs @@ fun () ->
  let dir = tmp_dir () in
  let st = open_store dir in
  Alcotest.check value_t "empty store misses" None (Store.find st "k1");
  Alcotest.(check bool) "put succeeds" true (Store.put st "k1" (value 1));
  Alcotest.(check int) "one entry on disk" 1 (Store.count st);
  Alcotest.check value_t "hit returns the value verbatim" (Some (value 1))
    (Store.find st "k1");
  Alcotest.check value_t "missing key misses" None (Store.find st "k2");
  Alcotest.(check int) "hits counted" 1 (counter "hit");
  Alcotest.(check int) "misses counted" 2 (counter "miss");
  (* a fresh handle on the same dir sees the entry: restart persistence *)
  Alcotest.check value_t "entry survives re-open" (Some (value 1))
    (Store.find (open_store dir) "k1");
  (* the serving spill's value type: two tensors, bit-exact *)
  let tensors : (T.t * T.t) Store.t =
    Store.create ~magic ~suffix:".pair" ~counters:"test/pairs" dir
  in
  let rng = Rng.create 3 in
  let b = T.rand_uniform rng ~lo:0. ~hi:4. [| 8; 5; 7 |] in
  let t = T.rand_uniform rng ~lo:0. ~hi:4. [| 8; 5; 7 |] in
  Alcotest.(check bool) "tensor put" true (Store.put tensors "key-1" (b, t));
  match Store.find tensors "key-1" with
  | Some (gb, gt) ->
      check_bits "bottom survives disk" b gb;
      check_bits "top survives disk" t gt
  | None -> Alcotest.fail "tensor entry not found"

(* Each case damages the entry stored under "k" (or plants one there). *)
let damage_cases =
  [
    ( "flipped body byte",
      fun _st path ->
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
        ignore (Unix.lseek fd (String.length magic + 20) Unix.SEEK_SET : int);
        ignore (Unix.write_substring fd "\xff" 0 1 : int);
        Unix.close fd );
    ( "truncated to half",
      fun _st path -> Unix.truncate path ((Unix.stat path).Unix.st_size / 2) );
    ("truncated inside the magic", fun _st path -> write_raw path "DCO3D");
    ("empty file", fun _st path -> write_raw path "");
    ( "foreign magic",
      fun _st path -> write_raw path "DCO3D-SPILL-V1 something else entirely" );
    ( "wrong stored key",
      (* a hash-slot mixup: an intact entry for "other" lands under
         k's name; the stored-key check must reject it *)
      fun st path ->
        ignore (Store.put st "other" (value 9) : bool);
        Sys.rename (entry st "other") path );
  ]

let test_damage_discards () =
  List.iter
    (fun (label, damage) ->
      let st = open_store (tmp_dir ()) in
      ignore (Store.put st "k" (value 1) : bool);
      let path = entry st "k" in
      damage st path;
      Alcotest.check value_t (label ^ ": miss") None (Store.find st "k");
      Alcotest.(check bool) (label ^ ": file discarded") false
        (Sys.file_exists path);
      Alcotest.(check int) (label ^ ": store empty again") 0 (Store.count st);
      ignore (Store.put st "k" (value 2) : bool);
      Alcotest.check value_t (label ^ ": repopulates") (Some (value 2))
        (Store.find st "k"))
    damage_cases

let test_undecodable_body_is_a_miss () =
  (* Digest-valid framing around a body shorter than Marshal's 16-byte
     header: decoding raises [Invalid_argument], which must be a miss
     that discards the poison entry, not an exception out of [find]. *)
  let st = open_store (tmp_dir ()) in
  let path = entry st "k" in
  write_frame ~magic path "short";
  Alcotest.check value_t "poison entry misses" None (Store.find st "k");
  Alcotest.(check bool) "poison file discarded" false (Sys.file_exists path);
  (* a full-length body that is not a Marshal image either *)
  write_frame ~magic path (String.make 64 'x');
  Alcotest.check value_t "garbage body misses" None (Store.find st "k");
  Alcotest.(check bool) "garbage file discarded" false (Sys.file_exists path)

let test_bounded_corrupt_survivor () =
  with_obs @@ fun () ->
  let st = open_store ~max_entries:2 (tmp_dir ()) in
  Alcotest.(check int) "cap" 2 (Store.max_entries st);
  (* a corrupt survivor from a crashed run, older than everything, and
     a file of another suffix that the store must never touch *)
  let junk = Filename.concat (Store.dir st) "deadbeef.t" in
  write_raw junk "not a framed entry";
  Unix.utimes junk 1000. 1000.;
  let foreign = Filename.concat (Store.dir st) "other.y" in
  write_raw foreign "";
  Unix.utimes foreign 900. 900.;
  ignore (Store.put st "a" (value 1) : bool);
  Alcotest.(check int) "under the cap nothing is evicted" 0 (counter "evicted");
  Alcotest.(check bool) "junk still there under the cap" true
    (Sys.file_exists junk);
  ignore (Store.put st "b" (value 2) : bool);
  (* the second put pushes the population to 3: the corrupt file is
     oldest, so it is what ages out *)
  Alcotest.(check bool) "corrupt survivor aged out" false (Sys.file_exists junk);
  Alcotest.(check int) "bounded" 2 (Store.count st);
  Alcotest.(check int) "eviction counted" 1 (counter "evicted");
  Alcotest.(check bool) "foreign suffix untouched" true
    (Sys.file_exists foreign);
  Alcotest.check value_t "live entry a kept" (Some (value 1)) (Store.find st "a");
  Alcotest.check value_t "live entry b kept" (Some (value 2)) (Store.find st "b")

let test_lru_touch_on_hit () =
  with_obs @@ fun () ->
  let st = open_store ~max_entries:3 (tmp_dir ()) in
  (* deterministic ages, oldest first: k0 < k1 < k2 *)
  for i = 0 to 2 do
    let k = Printf.sprintf "k%d" i in
    ignore (Store.put st k (value i) : bool);
    let age = 1000. +. float_of_int i in
    Unix.utimes (entry st k) age age
  done;
  (* a hit refreshes k0, so k1 is now the least recently used *)
  Alcotest.(check bool) "hit" true (Store.find st "k0" <> None);
  ignore (Store.put st "k3" (value 3) : bool);
  Alcotest.(check bool) "touched entry survives" true
    (Sys.file_exists (entry st "k0"));
  Alcotest.(check bool) "oldest untouched entry evicted" false
    (Sys.file_exists (entry st "k1"));
  ignore (Store.put st "k4" (value 4) : bool);
  Alcotest.(check bool) "next-oldest evicted" false
    (Sys.file_exists (entry st "k2"));
  Alcotest.(check bool) "newest kept" true (Sys.file_exists (entry st "k4"));
  Alcotest.(check int) "bounded" 3 (Store.count st);
  Alcotest.(check int) "evictions counted" 2 (counter "evicted");
  Alcotest.(check int) "hits counted" 1 (counter "hit")

(* Cap 32 has a slack of 2: a scan runs on every other put and trims to
   30, so the count alternates 30/31 once full and never exceeds 32. *)
let test_amortized_eviction () =
  with_obs @@ fun () ->
  let dir = tmp_dir () in
  let st = open_store ~max_entries:32 dir in
  for i = 0 to 31 do
    ignore (Store.put st (Printf.sprintf "k%d" i) (value i) : bool);
    Alcotest.(check bool) "never over the cap" true (Store.count st <= 32)
  done;
  (* put #31 (odd) did not scan: 32 files, and put #30 trimmed 31 -> 30 *)
  Alcotest.(check int) "the off-period put does not scan" 31 (Store.count st);
  Alcotest.(check int) "one eviction so far" 1 (counter "evicted");
  ignore (Store.put st "k32" (value 32) : bool);
  Alcotest.(check int) "the period put trims to cap - slack" 30 (Store.count st);
  Alcotest.(check int) "two evicted at once" 3 (counter "evicted");
  for i = 33 to 99 do
    ignore (Store.put st (Printf.sprintf "k%d" i) (value i) : bool);
    Alcotest.(check bool) "never over the cap" true (Store.count st <= 32)
  done;
  Alcotest.(check int) "evictions account for every file" (100 - Store.count st)
    (counter "evicted");
  Alcotest.check value_t "newest kept" (Some (value 99)) (Store.find st "k99");
  (* a new handle with a smaller cap trims on its very first put *)
  let small = open_store ~max_entries:16 dir in
  ignore (Store.put small "fresh" (value 100) : bool);
  Alcotest.(check int) "re-opened handle trims on its first put" 15
    (Store.count small);
  Alcotest.check value_t "its fresh entry survives" (Some (value 100))
    (Store.find small "fresh")

let test_vanished_dir_is_best_effort () =
  with_obs @@ fun () ->
  let dir = tmp_dir () in
  let st = open_store dir in
  Unix.rmdir dir;
  Alcotest.(check bool) "put into a vanished dir fails softly" false
    (Store.put st "k" (value 1));
  Alcotest.(check int) "nothing evicted" 0 (counter "evicted");
  Alcotest.(check int) "count of a missing dir" 0 (Store.count st);
  Alcotest.check value_t "find misses" None (Store.find st "k")

let test_cap_defaults () =
  Alcotest.(check int) "default cap" 4096 Store.default_max_entries;
  Alcotest.(check int) "default applied" Store.default_max_entries
    (Store.max_entries (open_store (tmp_dir ())));
  Alcotest.(check int) "clamped to >= 1" 1
    (Store.max_entries (open_store ~max_entries:0 (tmp_dir ())))

let test_on_disk_layout () =
  let st = open_store (tmp_dir ()) in
  ignore (Store.put st "k" (value 5) : bool);
  let path = entry st "k" in
  Alcotest.(check string) "file name is MD5-hex(key) ^ suffix"
    (Digest.to_hex (Digest.string "k") ^ suffix)
    (Filename.basename path);
  let raw = read_raw path in
  let m = String.length magic in
  Alcotest.(check string) "magic prefix" magic (String.sub raw 0 m);
  let body = String.sub raw (m + 16) (String.length raw - m - 16) in
  Alcotest.(check string) "body digest" (Digest.string body) (String.sub raw m 16);
  Alcotest.(check bool) "body is Marshal (key, value)" true
    ((Marshal.from_string body 0 : string * value) = ("k", value 5));
  (* an entry written by hand in that layout is found: the corpus PPA
     store reads a pre-existing directory *)
  let dir = tmp_dir () in
  let key = "cell-key" in
  let row =
    {
      Corpus.r_design = "planted";
      r_digest = String.make 32 '0';
      r_config = "base";
      r_seed = 1;
      r_cells = 10;
      r_nets = 12;
      r_overflow = 3;
      r_ovf_pct = 0.5;
      r_wirelength_um = 123.4;
      r_wns_ps = -1.5;
      r_tns_ps = -2.5;
      r_power_mw = 0.25;
      r_peak_c = 26.0;
      r_avg_c = 25.1;
      r_gen_ms = 1.0;
      r_calib_ms = 2.0;
      r_flow_ms = 3.0;
    }
  in
  Unix.mkdir dir 0o755;
  write_frame ~magic:"DCO3D-CORPUS-V1"
    (Framing.path_of ~dir ~suffix:".ppa" key)
    (Marshal.to_string (key, row) []);
  Alcotest.(check bool) "planted corpus row is a hit" true
    (Store.find (Corpus.open_store dir) key = Some row)

(* The plain framed file under the store: [load] names each cause and
   deletes nothing; [save] raises on a failed write and leaves no temp
   file behind. *)
let test_file_save_load () =
  let dir = tmp_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "f.bin" in
  let load () : (value, string) result = Framing.load ~magic ~path in
  let cause what expected =
    match load () with
    | Ok _ -> Alcotest.failf "%s: loaded" what
    | Error c ->
        Alcotest.(check string) what expected c;
        Alcotest.(check bool) (what ^ ": file kept") true (Sys.file_exists path)
  in
  (match load () with
  | Ok _ -> Alcotest.fail "missing file: loaded"
  | Error c ->
      Alcotest.(check bool) ("missing file: " ^ c) false (c = ""));
  Framing.save ~magic ~path (value 7);
  Alcotest.(check bool) "round trip" true (load () = Ok (value 7));
  let raw = read_raw path in
  let m = String.length magic in
  write_raw path ("X" ^ String.sub raw 1 (String.length raw - 1));
  cause "foreign magic" "bad file magic";
  write_raw path (String.sub raw 0 (m + 8));
  cause "cut inside the digest" "truncated file";
  let b = Bytes.of_string raw in
  Bytes.set b (m + 20) (Char.chr (Char.code raw.[m + 20] lxor 1));
  write_raw path (Bytes.to_string b);
  cause "flipped body byte" "digest mismatch";
  write_frame ~magic path "short";
  cause "digest-valid garbage" "undecodable body";
  let nowhere = Filename.concat (Filename.concat dir "absent") "f.bin" in
  (match Framing.save ~magic ~path:nowhere (value 1) with
  | () -> Alcotest.fail "save into a missing directory succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check (list string)) "no temp file left" [ "f.bin" ]
    (Array.to_list (Sys.readdir dir))

let suites =
  [
    ( "store",
      [
        Alcotest.test_case "round-trip, counters, re-open" `Quick test_roundtrip;
        Alcotest.test_case "damaged entries discard and miss" `Quick
          test_damage_discards;
        Alcotest.test_case "undecodable body is a miss" `Quick
          test_undecodable_body_is_a_miss;
        Alcotest.test_case "bounded, corrupt survivor ages out" `Quick
          test_bounded_corrupt_survivor;
        Alcotest.test_case "LRU: touch on hit protects" `Quick
          test_lru_touch_on_hit;
        Alcotest.test_case "amortized eviction stays within the cap" `Quick
          test_amortized_eviction;
        Alcotest.test_case "vanished dir is best-effort" `Quick
          test_vanished_dir_is_best_effort;
        Alcotest.test_case "cap default and clamp" `Quick test_cap_defaults;
        Alcotest.test_case "on-disk layout pinned" `Quick test_on_disk_layout;
        Alcotest.test_case "framed file save/load causes" `Quick
          test_file_save_load;
      ] );
  ]
