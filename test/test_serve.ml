(* dco3d.serve: LRU cache, wire protocol, batched inference
   bit-exactness, load-guard regressions, and an end-to-end daemon
   exercise with concurrent clients from the domain pool. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Pool = Dco3d_parallel.Pool
module Obs = Dco3d_obs.Obs
module SiaUNet = Dco3d_nn.Siamese_unet
module Predictor = Dco3d_core.Predictor
module Lru = Dco3d_serve.Lru
module Proto = Dco3d_serve.Protocol
module Server = Dco3d_serve.Server
module Client = Dco3d_serve.Client
module Corpus = Dco3d_corpus.Corpus
module Gen = Dco3d_netlist.Generator
module Flow = Dco3d_flow.Flow

let with_jobs n f =
  Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

let tmp_name =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dco3d_serve_test_%d_%d%s" (Unix.getpid ()) !n suffix)

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)
(* ------------------------------------------------------------------ *)

(* [put] returns the entry it evicted; "balance lru hooks" checks
   that, these tests only the resident set *)
let put c key v = ignore (Lru.put c key v)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check int) "empty" 0 (Lru.length c);
  put c "a" 1;
  put c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  put c "c" 3;
  (* "b" was least recently used ("a" was promoted by the find) *)
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "full" 2 (Lru.length c)

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  put c "a" 1;
  put c "b" 2;
  put c "a" 10;
  Alcotest.(check (option int)) "replaced" (Some 10) (Lru.find c "a");
  Alcotest.(check int) "no growth" 2 (Lru.length c);
  put c "c" 3;
  Alcotest.(check (option int)) "b evicted after a's refresh" None
    (Lru.find c "b")

let test_lru_mem_no_promote () =
  let c = Lru.create ~capacity:2 in
  put c "a" 1;
  put c "b" 2;
  Alcotest.(check bool) "mem a" true (Lru.mem c "a");
  (* mem must not promote: "a" is still the eviction candidate *)
  put c "c" 3;
  Alcotest.(check bool) "a evicted" false (Lru.mem c "a");
  Alcotest.(check bool) "b kept" true (Lru.mem c "b")

let test_lru_zero_capacity () =
  let c = Lru.create ~capacity:0 in
  put c "a" 1;
  Alcotest.(check (option int)) "disabled cache never hits" None
    (Lru.find c "a");
  Alcotest.(check int) "stays empty" 0 (Lru.length c);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (Lru.create ~capacity:(-1)))

let test_lru_clear_and_churn () =
  let c = Lru.create ~capacity:8 in
  for i = 0 to 99 do
    put c (string_of_int i) i
  done;
  Alcotest.(check int) "capped" 8 (Lru.length c);
  for i = 92 to 99 do
    Alcotest.(check (option int))
      (Printf.sprintf "latest %d resident" i)
      (Some i)
      (Lru.find c (string_of_int i))
  done;
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check (option int)) "gone" None (Lru.find c "99")

(* ------------------------------------------------------------------ *)
(* Protocol framing                                                    *)
(* ------------------------------------------------------------------ *)

let rand_stack rng ny nx =
  T.rand_uniform rng ~lo:0. ~hi:4. [| 8; ny; nx |]

let test_protocol_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let rng = Rng.create 11 in
      let payload =
        { Proto.f_bottom = rand_stack rng 9 13; f_top = rand_stack rng 9 13 }
      in
      Proto.send_request a { Proto.req = Proto.Predict payload; timeout_ms = Some 25. };
      let env, _ = Proto.recv_request b in
      Alcotest.(check (option (float 0.))) "timeout survives" (Some 25.)
        env.Proto.timeout_ms;
      (match env.Proto.req with
      | Proto.Predict p ->
          Alcotest.(check (array (float 0.))) "payload bits survive"
            payload.Proto.f_bottom.T.data p.Proto.f_bottom.T.data;
          Alcotest.(check string) "content key stable"
            (Proto.predict_key payload) (Proto.predict_key p)
      | _ -> Alcotest.fail "wrong request decoded");
      Proto.send_reply b (Proto.Overloaded { queue_len = 3; capacity = 2 });
      (match Proto.recv_reply a with
      | Proto.Overloaded { queue_len = 3; capacity = 2 } -> ()
      | _ -> Alcotest.fail "wrong reply decoded"))

let test_protocol_rejects_garbage () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let junk = Bytes.of_string (String.make 64 'x') in
      ignore (Unix.write a junk 0 (Bytes.length junk));
      Alcotest.(check bool) "bad magic raises" true
        (match Proto.recv_request b with
        | _ -> false
        | exception Proto.Protocol_error _ -> true))

let test_protocol_eof_and_truncation () =
  (* Clean disconnect between frames: End_of_file. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  Alcotest.(check bool) "clean EOF" true
    (match Proto.recv_request b with
    | _ -> false
    | exception End_of_file -> true);
  Unix.close b;
  (* Disconnect mid-frame: Protocol_error, not a Marshal crash. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let partial = Bytes.of_string "DCO3D-SERVE-V1" in
  ignore (Unix.write a partial 0 (Bytes.length partial));
  Unix.close a;
  Alcotest.(check bool) "truncated header" true
    (match Proto.recv_request b with
    | _ -> false
    | exception Proto.Protocol_error _ -> true);
  Unix.close b

let test_predict_key_content_only () =
  let rng = Rng.create 5 in
  let p = { Proto.f_bottom = rand_stack rng 6 6; f_top = rand_stack rng 6 6 } in
  let same = { Proto.f_bottom = T.copy p.Proto.f_bottom; f_top = T.copy p.Proto.f_top } in
  Alcotest.(check string) "equal content, equal key" (Proto.predict_key p)
    (Proto.predict_key same);
  let other = { p with Proto.f_top = rand_stack rng 6 6 } in
  Alcotest.(check bool) "different content, different key" true
    (Proto.predict_key p <> Proto.predict_key other)

(* The key [read_request] derives from the wire is the digest the body
   frame was verified with; it must be [predict_key] of the tensors,
   byte for byte, whatever the shapes and envelope fields. *)
let test_wire_key_is_predict_key () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  let rng = Rng.create 71 in
  List.iter
    (fun (c, ny, nx) ->
      List.iter
        (fun timeout_ms ->
          let p =
            {
              Proto.f_bottom = T.rand_uniform rng ~lo:(-2.) ~hi:2. [| c; ny; nx |];
              f_top = T.rand_uniform rng ~lo:(-2.) ~hi:2. [| c; ny; nx |];
            }
          in
          Proto.send_request a { Proto.req = Proto.Predict p; timeout_ms };
          let env, key = Proto.recv_request b in
          let what = Printf.sprintf "%dx%dx%d" c ny nx in
          Alcotest.(check (option string)) (what ^ " key") (Some (Proto.predict_key p)) key;
          Alcotest.(check (option (float 0.))) (what ^ " timeout") timeout_ms
            env.Proto.timeout_ms;
          match env.Proto.req with
          | Proto.Predict q ->
              Alcotest.(check (array (float 0.))) (what ^ " bottom")
                p.Proto.f_bottom.T.data q.Proto.f_bottom.T.data;
              Alcotest.(check (array (float 0.))) (what ^ " top")
                p.Proto.f_top.T.data q.Proto.f_top.T.data
          | _ -> Alcotest.fail "wrong request decoded")
        [ None; Some 0.5; Some 1e4 ])
    [ (7, 1, 1); (7, 6, 6); (8, 9, 13); (1, 32, 3); (7, 0, 4) ];
  (* every other request carries no key *)
  Proto.send_request a { Proto.req = Proto.Ping; timeout_ms = Some 3. };
  Alcotest.(check (option string)) "ping has no key" None
    (snd (Proto.recv_request b))

(* The balancer hands a routed connection's first frames to a shard in
   one control message; the shard must get the same frames back, digests
   included, and a cut encoding must be refused. *)
let test_handoff_frames () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  let rng = Rng.create 73 in
  let p = { Proto.f_bottom = rand_stack rng 5 7; f_top = rand_stack rng 5 7 } in
  Proto.send_request a { Proto.req = Proto.Predict p; timeout_ms = Some 9. };
  let raw = Proto.recv_raw_request b in
  (match raw with
  | Proto.Raw_predict { body; _ } ->
      Alcotest.(check string) "routing key is predict_key" (Proto.predict_key p)
        (Digest.to_hex body.Proto.digest)
  | Proto.Raw _ -> Alcotest.fail "a predict reads as two frames");
  let frames = Proto.raw_frames raw in
  let encoded = Proto.encode_frames frames in
  Alcotest.(check bool) "fits the control channel" true
    (String.length encoded <= Proto.max_handoff_bytes);
  let decoded = Proto.decode_frames encoded in
  Alcotest.(check int) "two frames" 2 (List.length decoded);
  List.iter2
    (fun f g ->
      Alcotest.(check string) "digest" f.Proto.digest g.Proto.digest;
      Alcotest.(check string) "payload" f.Proto.payload g.Proto.payload)
    frames decoded;
  (* replayed through [read_request], the frames decode to the request *)
  let replay = ref decoded in
  let env, key =
    Proto.read_request (fun () ->
        match !replay with
        | f :: rest ->
            replay := rest;
            f
        | [] -> raise End_of_file)
  in
  Alcotest.(check (option string)) "replayed key" (Some (Proto.predict_key p)) key;
  Alcotest.(check (option (float 0.))) "replayed timeout" (Some 9.) env.Proto.timeout_ms;
  Alcotest.(check int) "empty handoff" 0 (List.length (Proto.decode_frames ""));
  List.iter
    (fun cut ->
      Alcotest.(check bool)
        (Printf.sprintf "cut at %d refused" cut)
        true
        (match Proto.decode_frames (String.sub encoded 0 cut) with
        | _ -> false
        | exception Proto.Protocol_error _ -> true))
    [ 1; 19; 20; 21; String.length encoded - 1 ]

(* A digest-valid payload shorter than Marshal's 20-byte header raises
   [Invalid_argument] inside Marshal; every decoder must turn that into
   [Protocol_error], like any other undecodable payload. *)
let test_short_payload_protocol_error () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  let refused what f =
    Alcotest.(check bool) what true
      (match f () with
      | _ -> false
      | exception Proto.Protocol_error msg ->
          String.length msg >= 11 && String.sub msg 0 11 = "undecodable")
  in
  Proto.send_frame a "short";
  refused "request" (fun () -> Proto.recv_request b);
  Proto.send_frame a "short";
  refused "reply" (fun () -> Proto.recv_reply b);
  refused "shard hello" (fun () -> Proto.decode_shard_hello "short");
  refused "empty payload" (fun () ->
      Proto.send_frame a "";
      Proto.recv_reply b)

(* ------------------------------------------------------------------ *)
(* predict_batch bit-exactness (satellite: property tests)             *)
(* ------------------------------------------------------------------ *)

let mk_predictor ?(input_hw = 8) ?(base_channels = 4) seed =
  let cfg = { SiaUNet.default_config with SiaUNet.base_channels } in
  {
    Predictor.net = SiaUNet.create (Rng.create seed) cfg;
    input_hw;
    label_scale = 1.0;
  }

let check_bits what expected got =
  Alcotest.(check int)
    (what ^ " length") (Array.length expected.T.data)
    (Array.length got.T.data);
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float got.T.data.(i) then
        Alcotest.failf "%s: bit mismatch at %d: %h vs %h" what i e
          got.T.data.(i))
    expected.T.data

let batch_matches_singles jobs sizes () =
  with_jobs jobs (fun () ->
      let predictor = mk_predictor 3 in
      let rng = Rng.create 17 in
      List.iter
        (fun n ->
          (* ragged sample shapes: resolution differs per pair *)
          let pairs =
            Array.init n (fun i ->
                let ny = 5 + ((i * 3) mod 9) and nx = 4 + ((i * 5) mod 11) in
                (rand_stack rng ny nx, rand_stack rng ny nx))
          in
          let batched = Predictor.predict_batch predictor pairs in
          Array.iteri
            (fun i (fb, ft) ->
              let eb, et = Predictor.predict predictor fb ft in
              let gb, gt = batched.(i) in
              check_bits (Printf.sprintf "n=%d sample %d bottom" n i) eb gb;
              check_bits (Printf.sprintf "n=%d sample %d top" n i) et gt)
            pairs)
        sizes)

let test_predict_batch_empty () =
  let predictor = mk_predictor 3 in
  Alcotest.(check int) "empty batch" 0
    (Array.length (Predictor.predict_batch predictor [||]))

(* ------------------------------------------------------------------ *)
(* Load guards (satellite: reject mismatched weight files)             *)
(* ------------------------------------------------------------------ *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_load_rejects_wrong_architecture () =
  let path = tmp_name ".bin" in
  let predictor = mk_predictor ~base_channels:4 9 in
  Predictor.save predictor path;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove (path ^ ".net"))
    (fun () ->
      (* Matching expectation loads fine... *)
      let same =
        Predictor.load
          ~expect:{ SiaUNet.default_config with SiaUNet.base_channels = 4 }
          path
      in
      Alcotest.(check string) "same weights" (Predictor.fingerprint predictor)
        (Predictor.fingerprint same);
      (* ...a disagreeing one is rejected with both architectures named. *)
      match
        Predictor.load
          ~expect:{ SiaUNet.default_config with SiaUNet.base_channels = 16 }
          path
      with
      | _ -> Alcotest.fail "wrong-architecture load must fail"
      | exception Predictor.Load_error msg ->
          Alcotest.(check bool) "mentions the mismatch" true
            (contains ~affix:"mismatch" msg);
          Alcotest.(check bool) "names the stored architecture" true
            (contains ~affix:"base_channels=4" msg);
          Alcotest.(check bool) "names the requested architecture" true
            (contains ~affix:"base_channels=16" msg))

let test_load_rejects_corrupt_weights () =
  let path = tmp_name ".bin" in
  let predictor = mk_predictor 13 in
  Predictor.save predictor path;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove (path ^ ".net"))
    (fun () ->
      (* Truncate the companion weights file mid-payload. *)
      let net_path = path ^ ".net" in
      let full = In_channel.with_open_bin net_path In_channel.input_all in
      Out_channel.with_open_bin net_path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full / 2)));
      (match Predictor.load path with
      | _ -> Alcotest.fail "truncated weights must fail"
      | exception Predictor.Load_error _ -> ());
      (* Garbage magic. *)
      Out_channel.with_open_bin net_path (fun oc ->
          Out_channel.output_string oc (String.make 256 'Z'));
      match Predictor.load path with
      | _ -> Alcotest.fail "garbage weights must fail"
      | exception Predictor.Load_error msg ->
          Alcotest.(check bool) "names the cause" true
            (contains ~affix:"magic" msg))

let test_load_rejects_incoherent_pair () =
  (* A predictor whose stored resolution is not divisible by the
     network's downsampling factor must be refused at load time. *)
  let path = tmp_name ".bin" in
  let predictor = { (mk_predictor 21) with Predictor.input_hw = 18 } in
  Predictor.save predictor path;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove (path ^ ".net"))
    (fun () ->
      match Predictor.load path with
      | _ -> Alcotest.fail "indivisible resolution must fail"
      | exception Predictor.Load_error msg ->
          Alcotest.(check bool) "names divisibility" true
            (contains ~affix:"divisible" msg))

let test_load_rejects_wrong_channels () =
  (* Weights for a 5-channel network can never serve the 8-channel
     feature pipeline, even though they Marshal-decode fine. *)
  let path = tmp_name ".bin" in
  let cfg = { SiaUNet.default_config with SiaUNet.in_channels = 5 } in
  let predictor =
    {
      Predictor.net = SiaUNet.create (Rng.create 3) cfg;
      input_hw = 8;
      label_scale = 1.0;
    }
  in
  Predictor.save predictor path;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove (path ^ ".net"))
    (fun () ->
      match Predictor.load path with
      | _ -> Alcotest.fail "wrong channel count must fail"
      | exception Predictor.Load_error msg ->
          Alcotest.(check bool) "names the channels" true
            (contains ~affix:"channels" msg))

(* ------------------------------------------------------------------ *)
(* End-to-end daemon                                                   *)
(* ------------------------------------------------------------------ *)

let with_server ?(queue_capacity = 64) ?(max_batch = 8) ?(batch_linger_ms = 30.)
    ?(cache_capacity = 128) ?spill_dir ?(shard_id = 0)
    predictor f =
  let cfg =
    {
      Server.address = Server.Unix_path (tmp_name ".sock");
      queue_capacity;
      max_batch;
      batch_linger_ms;
      cache_capacity;
      spill_dir;
      route_cache_dir = None;
      corpus_dir = None;
      shard_id;
    }
  in
  let srv = Server.start cfg predictor in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let stat srv name =
  match List.assoc_opt name (Server.stats srv) with
  | Some v -> v
  | None -> Alcotest.failf "stat %s missing" name

let test_e2e_concurrent_bit_identical () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  with_jobs 4 @@ fun () ->
  let predictor = mk_predictor 29 in
  with_server predictor @@ fun srv ->
  let addr = Server.bound_addr srv in
  let rng = Rng.create 31 in
  let payloads =
    Array.init 8 (fun i ->
        let ny = 6 + (i mod 3) and nx = 6 + (i mod 4) in
        (rand_stack rng ny nx, rand_stack rng ny nx))
  in
  (* Fire all clients concurrently from the domain pool; each worker
     opens its own connection.  Blocking socket IO releases the domain
     runtime lock, so the server's systhreads keep running. *)
  let replies =
    Pool.map_array
      (fun (fb, ft) ->
        let c = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> Client.predict c fb ft))
      payloads
  in
  Array.iteri
    (fun i reply ->
      match reply with
      | Client.Ok { c_bottom; c_top; cache_hit = _ } ->
          let fb, ft = payloads.(i) in
          let eb, et = Predictor.predict predictor fb ft in
          check_bits (Printf.sprintf "client %d bottom" i) eb c_bottom;
          check_bits (Printf.sprintf "client %d top" i) et c_top
      | _ -> Alcotest.failf "client %d not served" i)
    replies;
  (* The micro-batcher must have coalesced at least once: 8 concurrent
     requests against a 30 ms linger cannot all ride alone. *)
  Alcotest.(check bool) "batcher coalesced" true (stat srv "max_batch" > 1.);
  (match Obs.histogram_stats "serve/batch_size" with
  | Some (_, _, _, mx) ->
      Alcotest.(check bool) "obs histogram saw a real batch" true (mx > 1.)
  | None -> Alcotest.fail "serve/batch_size histogram empty");
  Alcotest.(check bool) "requests counted" true
    (Obs.counter_value "serve/requests" >= 8)

let test_e2e_cache_hit_no_recompute () =
  let predictor = mk_predictor 37 in
  with_server predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rng = Rng.create 41 in
  let fb = rand_stack rng 7 9 and ft = rand_stack rng 7 9 in
  (match Client.predict c fb ft with
  | Client.Ok { cache_hit; _ } ->
      Alcotest.(check bool) "first is a miss" false cache_hit
  | _ -> Alcotest.fail "first predict not served");
  let batches_before = stat srv "batches" in
  (* Same content from a different tensor allocation: the content key
     must hit, and no new forward pass may run. *)
  (match Client.predict c (T.copy fb) (T.copy ft) with
  | Client.Ok { cache_hit; c_bottom; c_top } ->
      Alcotest.(check bool) "repeat is a hit" true cache_hit;
      let eb, et = Predictor.predict predictor fb ft in
      check_bits "cached bottom" eb c_bottom;
      check_bits "cached top" et c_top
  | _ -> Alcotest.fail "repeat predict not served");
  Alcotest.(check (float 0.)) "no extra forward pass" batches_before
    (stat srv "batches");
  Alcotest.(check bool) "hit counted" true (stat srv "cache_hits" >= 1.)

let test_e2e_backpressure_overloaded () =
  let predictor = mk_predictor 43 in
  (* Tiny queue + long linger: the first request parks in the batcher's
     linger window while the second finds the queue full. *)
  with_server ~queue_capacity:1 ~batch_linger_ms:400. predictor @@ fun srv ->
  let addr = Server.bound_addr srv in
  let rng = Rng.create 47 in
  let mk () = (rand_stack rng 6 6, rand_stack rng 6 6) in
  let first_reply = ref None in
  let fb1, ft1 = mk () in
  let t =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> first_reply := Some (Client.predict c fb1 ft1)))
      ()
  in
  (* Wait until the first request occupies the queue. *)
  let deadline = Unix.gettimeofday () +. 5. in
  while stat srv "queue_depth" < 1. && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  let c = Client.connect addr in
  let overloaded =
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let fb, ft = mk () in
        Client.predict c fb ft)
  in
  (match overloaded with
  | Client.Overloaded { capacity = 1; _ } -> ()
  | Client.Overloaded _ -> Alcotest.fail "wrong capacity reported"
  | _ -> Alcotest.fail "second request should be refused");
  Thread.join t;
  (match !first_reply with
  | Some (Client.Ok _) -> ()
  | _ -> Alcotest.fail "queued request must still be served");
  Alcotest.(check bool) "overload counted" true (stat srv "overloaded" >= 1.)

let test_e2e_deadline_timeout () =
  let predictor = mk_predictor 53 in
  with_server ~batch_linger_ms:150. predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rng = Rng.create 59 in
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  (* A 1 ms deadline expires inside the 150 ms linger window, so the
     batcher must answer Timed_out without running the request. *)
  (match Client.predict ~timeout_ms:1. c fb ft with
  | Client.Timed_out -> ()
  | _ -> Alcotest.fail "expected a deadline miss");
  Alcotest.(check bool) "timeout counted" true (stat srv "timeouts" >= 1.);
  (* The connection stays usable afterwards. *)
  Client.ping c

let test_e2e_survives_rude_clients () =
  let predictor = mk_predictor 61 in
  with_server predictor @@ fun srv ->
  let addr = Server.bound_addr srv in
  let path = match addr with Server.Unix_path p -> p | _ -> assert false in
  (* Client 1: raw garbage bytes. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let junk = Bytes.of_string (String.make 128 '?') in
  ignore (Unix.write fd junk 0 (Bytes.length junk));
  Unix.close fd;
  (* Client 2: sends a valid request, then vanishes before the reply. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let rng = Rng.create 67 in
  Proto.send_request fd
    {
      Proto.req =
        Proto.Predict
          { Proto.f_bottom = rand_stack rng 6 6; f_top = rand_stack rng 6 6 };
      timeout_ms = None;
    };
  Unix.close fd;
  (* The daemon must shrug both off and keep serving. *)
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let deadline = Unix.gettimeofday () +. 5. in
  let rec settle () =
    Client.ping c;
    if stat srv "batches" < 1. && Unix.gettimeofday () < deadline then begin
      Thread.delay 0.01;
      settle ()
    end
  in
  settle ();
  Client.ping c;
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  match Client.predict c fb ft with
  | Client.Ok _ -> ()
  | _ -> Alcotest.fail "daemon should keep serving after rude clients"

(* A payload the predictor cannot evaluate (wrong channel count) must
   fail that request with a server error — and must NOT kill the
   batcher: the next well-formed predict on the same daemon succeeds.
   (Regression: an exception escaping [predict_batch] terminated the
   batcher thread, wedging every subsequent client forever.) *)
let test_bad_payload_does_not_kill_batcher () =
  let rng = Rng.create 83 in
  let predictor = mk_predictor 83 in
  with_server predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let bad = T.zeros [| 7; 6; 6 |] in
  (match try `R (Client.predict c bad bad) with Client.Error m -> `E m with
  | `E msg ->
      Alcotest.(check bool) "names the failure" true
        (contains ~affix:"predict failed" msg)
  | `R _ -> Alcotest.fail "7-channel payload must not predict");
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  match Client.predict c fb ft with
  | Client.Ok _ -> ()
  | _ -> Alcotest.fail "batcher must survive a malformed payload"

(* Frame bytes as [Protocol.send_frame] writes them, with the version
   and digest open to tampering. *)
let raw_frame ?(version = 4) ?digest payload =
  let digest = Option.value digest ~default:(Digest.string payload) in
  let b = Buffer.create (String.length payload + 35) in
  Buffer.add_string b "DCO3D-SERVE-V1";
  Buffer.add_uint8 b version;
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_string b digest;
  Buffer.add_string b payload;
  Buffer.contents b

let write_string fd s =
  Proto.write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

let dial_raw srv =
  match Server.bound_addr srv with
  | Server.Unix_path p ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX p);
      fd
  | Server.Tcp _ -> assert false

(* Send [bytes] on a fresh connection, half-close it and read the
   daemon's answer: a protocol-error reply, or the connection closed. *)
let expect_protocol_error srv what bytes =
  let fd = dial_raw srv in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  write_string fd bytes;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  match Proto.recv_reply fd with
  | Proto.Server_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: protocol error (%s)" what msg)
        true
        (contains ~affix:"protocol error" msg)
  | _ -> Alcotest.failf "%s: expected a protocol error" what
  | exception e ->
      Alcotest.failf "%s: no reply (%s)" what (Printexc.to_string e)

(* A digest-valid 5-byte frame used to escape [Protocol_error] as
   [Invalid_argument]: the daemon dropped the connection without its
   reply, and a client reading it as a reply saw the raw exception. *)
let test_short_payload_e2e () =
  let predictor = mk_predictor 89 in
  let rng = Rng.create 89 in
  with_server predictor @@ fun srv ->
  expect_protocol_error srv "5-byte request" (raw_frame "short");
  (* the daemon serves a fresh connection *)
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      Client.ping c;
      let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
      match Client.predict c fb ft with
      | Client.Ok _ -> ()
      | _ -> Alcotest.fail "daemon must keep serving");
  (* the same frame as a reply: the client sees a lost connection *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let peer =
    Thread.create
      (fun () ->
        ignore (Proto.recv_request b);
        write_string b (raw_frame "short"))
      ()
  in
  let c = Client.of_fd a in
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  let outcome = Client.predict c fb ft in
  Thread.join peer;
  Unix.close b;
  Client.close c;
  match outcome with
  | Client.Disconnected -> ()
  | _ -> Alcotest.fail "a short reply frame must read as Disconnected"

(* [Tensor.t]'s layout, for forging a tensor whose shape lies. *)
type forged_tensor = { shape : int array; data : float array }

(* A predict is an envelope frame and a body frame; every way of
   getting the pair wrong is a protocol error on that connection, and
   the daemon keeps serving. *)
let test_malformed_two_frame_predicts () =
  let predictor = mk_predictor 97 in
  let rng = Rng.create 97 in
  with_server predictor @@ fun srv ->
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  let envelope, body =
    match
      Proto.encode_request
        { Proto.req = Proto.Predict { Proto.f_bottom = fb; f_top = ft }; timeout_ms = None }
    with
    | [ e; b ] -> (e, b)
    | _ -> Alcotest.fail "a predict encodes as two frames"
  in
  let framed = raw_frame body in
  let cases =
    [
      ("envelope, then EOF", raw_frame envelope);
      ( "truncated body frame",
        raw_frame envelope ^ String.sub framed 0 (String.length framed / 2) );
      ( "body digest mismatch",
        raw_frame envelope ^ raw_frame ~digest:(Digest.string "other") body );
      ("body of another type", raw_frame envelope ^ raw_frame (Marshal.to_string 42 []));
      ( "body of strings",
        raw_frame envelope ^ raw_frame (Marshal.to_string ("a", "b") []) );
      ( "tensor with a lying shape",
        raw_frame envelope
        ^ raw_frame
            (Marshal.to_string
               ({ shape = [| 7; 9; 9 |]; data = [| 1. |] }, ft)
               []) );
      ( "tensors inside the envelope",
        raw_frame
          (Marshal.to_string
             (Proto.Predict { Proto.f_bottom = fb; f_top = ft }, (None : float option))
             []) );
      ("envelope of another type", raw_frame (Marshal.to_string [ 1; 2; 3 ] []));
      ("a v2 frame", raw_frame ~version:2 envelope);
      ("a v3 frame", raw_frame ~version:3 envelope);
    ]
  in
  List.iter
    (fun (what, bytes) ->
      expect_protocol_error srv what bytes;
      let c = Client.connect (Server.bound_addr srv) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Client.ping c)
    cases;
  (* an old peer's refusal names its version *)
  List.iter
    (fun version ->
      let fd = dial_raw srv in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      write_string fd (raw_frame ~version envelope);
      match Proto.recv_reply fd with
      | Proto.Server_error msg ->
          Alcotest.(check bool) msg true
            (contains
               ~affix:(Printf.sprintf "unsupported protocol version %d" version)
               msg)
      | _ -> Alcotest.failf "v%d must be refused" version)
    [ 2; 3 ];
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.predict c fb ft with
  | Client.Ok { cache_hit = false; _ } -> ()
  | _ -> Alcotest.fail "daemon must keep serving after malformed predicts"

let corpus_req_all_set =
  {
    Proto.cr_spec =
      Corpus.spec ~scale:0.5 ~seed:3 ~seq_fraction:0.2 ~depth:7 ~hub_fraction:0.01
        ~locality:0.4 ~macros:2 ~name:"probe" "AES";
    cr_config = Corpus.flow_config ~gcell:12 ~util:0.6 ~variant:Corpus.Cong "cong";
    cr_kind = Proto.Corpus_dataset 3;
  }

(* Every request of the version-4 layout passes the layout check and
   decodes to itself; the check must not refuse a real request. *)
let test_request_layouts_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  List.iter
    (fun (what, req) ->
      List.iter
        (fun timeout_ms ->
          Proto.send_request a { Proto.req; timeout_ms };
          let env, key = Proto.recv_request b in
          Alcotest.(check bool) (what ^ " decodes to itself") true
            (env = { Proto.req; timeout_ms } && key = None))
        [ None; Some 2.5 ])
    [
      ("ping", Proto.Ping);
      ("stats", Proto.Stats);
      ("hello any", Proto.Hello Proto.Want_any);
      ("hello fingerprint", Proto.Hello (Proto.Want_fingerprint "f00d"));
      ("corpus poll", Proto.Corpus_poll 17);
      ("corpus submit, every override", Proto.Corpus_submit corpus_req_all_set);
      ( "corpus submit, defaults",
        Proto.Corpus_submit
          {
            Proto.cr_spec = Corpus.spec ~name:"DMA" "DMA";
            cr_config = Corpus.flow_config "base";
            cr_kind = Proto.Corpus_ppa;
          } );
    ]

(* Envelope payloads whose request is digest-valid Marshal data of the
   wrong layout.  [Some x] has the layout of the envelope head
   [Whole x]; [x] is built from [Obj] blocks, or from a real request
   with one field swapped (the blocks on the path to it are copied). *)
let crafted_requests =
  let block tag fields =
    let b = Obj.new_block tag (Array.length fields) in
    Array.iteri (Obj.set_field b) fields;
    b
  in
  let rec swap o path v =
    match path with
    | [] -> v
    | i :: rest ->
        let o' = Obj.dup o in
        Obj.set_field o' i (swap (Obj.field o i) rest v);
        o'
  in
  let submit = Obj.repr (Proto.Corpus_submit corpus_req_all_set) in
  let spec = Obj.field (Obj.field submit 0) 0 in
  let int = Obj.repr and str (s : string) = Obj.repr s in
  List.map
    (fun (what, x) ->
      (what, Marshal.to_string (Some x, (None : float option)) []))
    [
      ("constant constructor out of range", int 2);
      ("negative constant constructor", int (-1));
      ("unknown block tag", block 4 [| int 0 |]);
      ("known tag, two fields", block 3 [| int 1; int 2 |]);
      ("corpus poll of a string", block 3 [| str "7" |]);
      ("hello of an out-of-range want", block 1 [| int 1 |]);
      ("hello of a fingerprint that is an int", block 1 [| block 0 [| int 5 |] |]);
      ("corpus submit of an int", block 2 [| int 0 |]);
      ("corpus req of two fields", block 2 [| block 0 [| spec; spec |] |]);
      ("spec name an int", swap submit [ 0; 0; 0 ] (int 1));
      ("spec base an int", swap submit [ 0; 0; 1 ] (int 1));
      ("spec scale an int", swap submit [ 0; 0; 2 ] (int 1));
      ("spec seed a string", swap submit [ 0; 0; 3 ] (str "x"));
      ("spec seq fraction an int", swap submit [ 0; 0; 4; 0 ] (int 1));
      ("spec depth a string", swap submit [ 0; 0; 5; 0 ] (str "x"));
      ("spec macros out of option", swap submit [ 0; 0; 8 ] (int 1));
      ("spec missing a field", swap submit [ 0; 0 ] (block 0 [| str "a"; str "b" |]));
      ("config name an int", swap submit [ 0; 1; 0 ] (int 1));
      ("config variant out of range", swap submit [ 0; 1; 1 ] (int 2));
      ("config gcell a string", swap submit [ 0; 1; 2 ] (str "x"));
      ("config util an int", swap submit [ 0; 1; 3 ] (int 1));
      ("kind out of range", swap submit [ 0; 2 ] (int 1));
      ("dataset size a string", swap submit [ 0; 2; 0 ] (str "x"));
    ]

let test_crafted_layouts_refused () =
  List.iter
    (fun (what, payload) ->
      let frame = { Proto.digest = Digest.string payload; payload } in
      Alcotest.(check bool) (what ^ " raises Protocol_error") true
        (match Proto.read_request (fun () -> frame) with
        | _ -> false
        | exception Proto.Protocol_error _ -> true))
    crafted_requests

(* On a live daemon each crafted frame costs only its own connection:
   it gets a protocol-error reply, and a fresh connection's predict is
   answered. *)
let test_crafted_layouts_e2e () =
  let predictor = mk_predictor 103 in
  let rng = Rng.create 103 in
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  with_server predictor @@ fun srv ->
  List.iter
    (fun (what, payload) ->
      expect_protocol_error srv what (raw_frame payload);
      let c = Client.connect (Server.bound_addr srv) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      match Client.predict c fb ft with
      | Client.Ok _ -> ()
      | _ -> Alcotest.failf "%s: the daemon must keep serving" what)
    crafted_requests

let with_obs f =
  let was = Obs.enabled () in
  Obs.enable ();
  Fun.protect ~finally:(fun () -> if not was then Obs.disable ()) f

(* [serve/digest_bytes]: an in-process predict round trip hashes each
   frame once on each side — the request's envelope and body, the
   reply — and nothing else: the cache key is the body's frame digest,
   not a second hash of the tensors. *)
let test_digest_bytes_once_per_side () =
  with_obs @@ fun () ->
  let predictor = mk_predictor 101 in
  let rng = Rng.create 101 in
  with_server predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  let request =
    Proto.encode_request
      { Proto.req = Proto.Predict { Proto.f_bottom = fb; f_top = ft }; timeout_ms = None }
  in
  List.iter
    (fun expect_hit ->
      let before = Obs.counter_value "serve/digest_bytes" in
      match Client.predict c fb ft with
      | Client.Ok { c_bottom; c_top; cache_hit } ->
          let hashed = Obs.counter_value "serve/digest_bytes" - before in
          Alcotest.(check bool) "cache hit" expect_hit cache_hit;
          let reply =
            Marshal.to_string (Proto.Predicted { c_bottom; c_top; cache_hit }) []
          in
          let frames =
            List.fold_left (fun n f -> n + String.length f) 0 (reply :: request)
          in
          Alcotest.(check int)
            (Printf.sprintf "hit=%b: each frame once per side" expect_hit)
            (2 * frames) hashed
      | _ -> Alcotest.fail "predict failed")
    [ false; true ]

(* The key the daemon derives from the wire is [predict_key]: an entry
   planted in the spill under [predict_key ^ ":" ^ fingerprint] is
   served, for any shape and with or without a deadline. *)
let test_served_key_is_predict_key () =
  let predictor = mk_predictor 103 in
  let rng = Rng.create 103 in
  let spill_dir = tmp_name ".spill" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists spill_dir then begin
        Array.iter (fun e -> Sys.remove (Filename.concat spill_dir e))
          (Sys.readdir spill_dir);
        Sys.rmdir spill_dir
      end)
  @@ fun () ->
  with_server ~spill_dir predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter
    (fun ((ny, nx), timeout_ms) ->
      let b = rand_stack rng ny nx and t = rand_stack rng ny nx in
      let key =
        Proto.predict_key { Proto.f_bottom = b; f_top = t }
        ^ ":" ^ Server.fingerprint srv
      in
      (* not the model's output: only the planted entry can supply it *)
      let pb = rand_stack rng 3 3 and pt = rand_stack rng 3 3 in
      Alcotest.(check bool) "planted" true
        (Dco3d_framing.Framing.write_file ~magic:"DCO3D-SPILL-V1"
           ~path:(Dco3d_framing.Framing.path_of ~dir:spill_dir ~suffix:".spill" key)
           ~body:(Marshal.to_string (key, (pb, pt)) []));
      match Client.predict ?timeout_ms c b t with
      | Client.Ok { c_bottom; c_top; cache_hit } ->
          let what = Printf.sprintf "%dx%d" ny nx in
          Alcotest.(check bool) (what ^ " served from the planted key") true cache_hit;
          check_bits (what ^ " bottom") pb c_bottom;
          check_bits (what ^ " top") pt c_top
      | _ -> Alcotest.fail "predict failed")
    [
      ((1, 1), None);
      ((6, 6), Some 1e4);
      ((9, 13), None);
      ((32, 3), Some 5e3);
    ]

(* A corpus spec whose base profile does not exist: its job fails
   before any flow runs, so it makes a cheap finished job.  Distinct
   seeds keep the in-flight dedup from merging submits. *)
let unknown_base_req i =
  {
    Proto.cr_spec =
      Corpus.reseeded i (Corpus.spec ~scale:0.02 ~name:"bogus" "no-such-design");
    cr_config = Corpus.flow_config ~gcell:8 "base";
    cr_kind = Proto.Corpus_ppa;
  }

(* A remote flow is a corpus PPA cell: the [base] cell of a spec named
   after its profile runs the Pin-3D flow on the very netlist and
   context a local run builds. *)
let test_e2e_corpus_job () =
  let predictor = mk_predictor 71 in
  with_server predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* Unknown base profile: the job fails, the daemon does not. *)
  let bad = Client.submit_corpus c (unknown_base_req 1) in
  (match
     try `Row (Client.wait_corpus c bad) with Client.Error msg -> `Err msg
   with
  | `Err msg ->
      Alcotest.(check bool) ("failure names the profile: " ^ msg) true
        (contains ~affix:"unknown base profile \"no-such-design\"" msg)
  | `Row _ -> Alcotest.fail "unknown base profile must fail");
  (* A real (tiny) cell completes asynchronously and reports PPA. *)
  let scale = 0.02 and seed = 5 and gcell = 10 in
  let id =
    Client.submit_corpus c
      {
        Proto.cr_spec = Corpus.spec ~scale ~seed ~name:"DMA" "DMA";
        cr_config = Corpus.flow_config ~gcell "base";
        cr_kind = Proto.Corpus_ppa;
      }
  in
  (* Submission returns immediately; the cell runs on the job worker
     while this connection stays free for other requests. *)
  Client.ping c;
  let r =
    match Client.wait_corpus c id with
    | Proto.Corpus_row r -> r
    | Proto.Corpus_dataset_built _ -> Alcotest.fail "expected a PPA row"
  in
  let local =
    let nl = Gen.generate ~scale ~seed (Gen.profile "DMA") in
    Flow.run_pin3d (Flow.make_context ~seed ~gcell_nx:gcell ~gcell_ny:gcell nl)
  in
  Alcotest.(check bool) "wirelength positive" true (r.Corpus.r_wirelength_um > 0.);
  Alcotest.(check int) "overflow = local Pin-3D run"
    local.Flow.place_stage.Flow.overflow r.Corpus.r_overflow;
  List.iter
    (fun (what, want, got) -> Alcotest.(check (float 0.)) what want got)
    [
      ("WL = local", local.Flow.signoff.Flow.wirelength_um, r.Corpus.r_wirelength_um);
      ("WNS = local", local.Flow.signoff.Flow.wns_ps, r.Corpus.r_wns_ps);
      ("TNS = local", local.Flow.signoff.Flow.tns_ps, r.Corpus.r_tns_ps);
      ("power = local", local.Flow.signoff.Flow.power_mw, r.Corpus.r_power_mw);
    ];
  (* Unknown job id is an error, not a crash. *)
  match Client.poll_corpus c (id + 999) with
  | _ -> Alcotest.fail "unknown job id must be refused"
  | exception Client.Error msg ->
      Alcotest.(check bool) msg true (contains ~affix:"unknown corpus job id" msg)

(* The job table is bounded: a daemon polled for weeks must not hold
   every result it ever produced, but a client that submits many jobs
   before polling any must still find them all. *)
let submit_unknown_base c n =
  List.init n (fun i -> Client.submit_corpus c (unknown_base_req i))

(* jobs run in submission order: once the newest has finished, every
   older one has too.  Peeks with the server's stats, not a poll, so no
   status counts as answered. *)
let settle_corpus_jobs srv n =
  let rec go () =
    let s = Server.stats srv in
    if List.assoc "corpus_failed" s +. List.assoc "corpus_done" s < float_of_int n
    then begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let check_unknown what c id =
  match Client.poll_corpus c id with
  | _ -> Alcotest.fail (what ^ ": must have been forgotten")
  | exception Client.Error msg ->
      Alcotest.(check bool) (what ^ " answers unknown corpus job id") true
        (contains ~affix:"unknown corpus job id" msg)

let check_failed what c id =
  match Client.poll_corpus c id with
  | Proto.Corpus_failed msg ->
      Alcotest.(check bool) (what ^ " reports its failure") true
        (contains ~affix:"no-such-design" msg)
  | _ -> Alcotest.fail (what ^ ": must report Corpus_failed")

(* Answered statuses retire after [Server.job_retention] later answers;
   unanswered ones outlive that many finished jobs. *)
let test_e2e_job_retention () =
  let predictor = mk_predictor 79 in
  with_server predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = Server.job_retention + 1 in
  let ids = submit_unknown_base c n in
  Alcotest.(check int) "no submit deduped" n
    (List.length (List.sort_uniq compare ids));
  settle_corpus_jobs srv n;
  (* more than [job_retention] jobs finished, none polled yet: the
     first is still there *)
  check_failed "first job, submitted before any poll" c (List.hd ids);
  (* answer every other one once; the first answer is now the oldest of
     cap + 1 and is dropped, the second-oldest stays *)
  List.iter (fun id -> check_failed "each job" c id) (List.tl ids);
  check_unknown "oldest answered job" c (List.hd ids);
  check_failed "the cap-th most recently answered job" c (List.nth ids 1);
  (* an answered job may be polled again while it is retained *)
  check_failed "repeat poll" c (List.nth ids 1)

(* The hard bound: unanswered statuses go once
   [Server.job_retention_unpolled] later jobs have finished. *)
let test_e2e_job_retention_unpolled () =
  let predictor = mk_predictor 80 in
  with_server predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = Server.job_retention_unpolled + 1 in
  let ids = submit_unknown_base c n in
  settle_corpus_jobs srv n;
  check_unknown "oldest unpolled job" c (List.hd ids);
  check_failed "second-oldest unpolled job" c (List.nth ids 1);
  check_failed "newest job" c (List.nth ids (n - 1))

let test_e2e_drain_on_stop () =
  let predictor = mk_predictor 73 in
  let cfg =
    {
      Server.address = Server.Unix_path (tmp_name ".sock");
      queue_capacity = 64;
      max_batch = 8;
      batch_linger_ms = 200.;
      cache_capacity = 16;
      spill_dir = None;
      route_cache_dir = None;
      corpus_dir = None;
      shard_id = 0;
    }
  in
  let srv = Server.start cfg predictor in
  let addr = Server.bound_addr srv in
  let rng = Rng.create 79 in
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  let reply = ref None in
  let t =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> reply := Some (Client.predict c fb ft)))
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while stat srv "queue_depth" < 1. && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  (* Stop while the request is still queued in the linger window: the
     drain must answer it, not drop it. *)
  Server.stop srv;
  Thread.join t;
  match !reply with
  | Some (Client.Ok { c_bottom; c_top; _ }) ->
      let eb, et = Predictor.predict predictor fb ft in
      check_bits "drained bottom" eb c_bottom;
      check_bits "drained top" et c_top
  | _ -> Alcotest.fail "queued request must be served during drain"

(* ------------------------------------------------------------------ *)
(* Client retry                                                        *)
(* ------------------------------------------------------------------ *)

let test_retry_overloaded_recovers () =
  let predictor = mk_predictor 101 in
  (* Tiny queue + long linger: a parked request keeps the queue full,
     so a second client is refused with Overloaded until the linger
     window expires and the batch drains.  Client.retry must absorb
     those refusals and come back with the real reply. *)
  with_server ~queue_capacity:1 ~batch_linger_ms:150. predictor @@ fun srv ->
  let addr = Server.bound_addr srv in
  let rng = Rng.create 103 in
  let fb1, ft1 = (rand_stack rng 6 6, rand_stack rng 6 6) in
  let first_reply = ref None in
  let t =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> first_reply := Some (Client.predict c fb1 ft1)))
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while stat srv "queue_depth" < 1. && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let fb, ft = (rand_stack rng 6 6, rand_stack rng 6 6) in
  (match Client.retry ~attempts:30 ~base_delay_s:0.02 ~max_delay_s:0.1 c fb ft
   with
  | Client.Ok { c_bottom; c_top; _ } ->
      let eb, et = Predictor.predict predictor fb ft in
      check_bits "retried bottom" eb c_bottom;
      check_bits "retried top" et c_top
  | Client.Overloaded _ -> Alcotest.fail "retry gave up while queue drained"
  | _ -> Alcotest.fail "retry must end in a served reply");
  Alcotest.(check bool) "server refused at least once" true
    (stat srv "overloaded" >= 1.);
  Thread.join t;
  match !first_reply with
  | Some (Client.Ok _) -> ()
  | _ -> Alcotest.fail "parked request must still be served"

let test_retry_respects_deadline () =
  let predictor = mk_predictor 107 in
  with_server ~queue_capacity:1 ~batch_linger_ms:400. predictor @@ fun srv ->
  let addr = Server.bound_addr srv in
  let rng = Rng.create 109 in
  let fb1, ft1 = (rand_stack rng 6 6, rand_stack rng 6 6) in
  let t =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> ignore (Client.predict c fb1 ft1)))
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while stat srv "queue_depth" < 1. && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let fb, ft = (rand_stack rng 6 6, rand_stack rng 6 6) in
  let started = Unix.gettimeofday () in
  (* The queue stays full for 400 ms but the retry budget is 100 ms:
     retry must return the typed refusal once the deadline is spent
     instead of burning all 50 attempts. *)
  (match
     Client.retry ~attempts:50 ~base_delay_s:0.02 ~max_delay_s:0.05
       ~deadline_s:0.1 c fb ft
   with
  | Client.Overloaded _ -> ()
  | Client.Ok _ -> Alcotest.fail "queue cannot have drained inside 100 ms"
  | _ -> Alcotest.fail "expected the typed overload refusal");
  let elapsed = Unix.gettimeofday () -. started in
  Alcotest.(check bool)
    (Printf.sprintf "deadline respected (%.3fs)" elapsed)
    true (elapsed < 0.35);
  Thread.join t

let suites =
  [
    ( "serve lru",
      [
        Alcotest.test_case "basic eviction order" `Quick test_lru_basic;
        Alcotest.test_case "replace refreshes" `Quick test_lru_replace;
        Alcotest.test_case "mem does not promote" `Quick test_lru_mem_no_promote;
        Alcotest.test_case "zero capacity disables" `Quick
          test_lru_zero_capacity;
        Alcotest.test_case "churn and clear" `Quick test_lru_clear_and_churn;
      ] );
    ( "serve protocol",
      [
        Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_protocol_rejects_garbage;
        Alcotest.test_case "eof and truncation" `Quick
          test_protocol_eof_and_truncation;
        Alcotest.test_case "content-only cache key" `Quick
          test_predict_key_content_only;
        Alcotest.test_case "wire key = predict_key" `Quick
          test_wire_key_is_predict_key;
        Alcotest.test_case "short payload is a protocol error" `Quick
          test_short_payload_protocol_error;
        Alcotest.test_case "handoff frames roundtrip" `Quick test_handoff_frames;
        Alcotest.test_case "request layouts roundtrip" `Quick
          test_request_layouts_roundtrip;
        Alcotest.test_case "crafted request layouts refused" `Quick
          test_crafted_layouts_refused;
      ] );
    ( "serve batch",
      [
        Alcotest.test_case "batch = singles, jobs=1" `Quick
          (batch_matches_singles 1 [ 1; 2; 5 ]);
        Alcotest.test_case "batch = singles, jobs=4" `Quick
          (batch_matches_singles 4 [ 1; 3; 5 ]);
        Alcotest.test_case "empty batch" `Quick test_predict_batch_empty;
      ] );
    ( "serve load guards",
      [
        Alcotest.test_case "wrong architecture" `Quick
          test_load_rejects_wrong_architecture;
        Alcotest.test_case "corrupt weights" `Quick
          test_load_rejects_corrupt_weights;
        Alcotest.test_case "incoherent pair" `Quick
          test_load_rejects_incoherent_pair;
        Alcotest.test_case "wrong channel count" `Quick
          test_load_rejects_wrong_channels;
      ] );
    ( "serve e2e",
      [
        Alcotest.test_case "concurrent clients, bit-identical" `Quick
          test_e2e_concurrent_bit_identical;
        Alcotest.test_case "cache hit skips recompute" `Quick
          test_e2e_cache_hit_no_recompute;
        Alcotest.test_case "backpressure overloads" `Quick
          test_e2e_backpressure_overloaded;
        Alcotest.test_case "deadline timeout" `Quick test_e2e_deadline_timeout;
        Alcotest.test_case "survives rude clients" `Quick
          test_e2e_survives_rude_clients;
        Alcotest.test_case "bad payload fails, batcher survives" `Quick
          test_bad_payload_does_not_kill_batcher;
        Alcotest.test_case "short payload: error reply, serves on" `Quick
          test_short_payload_e2e;
        Alcotest.test_case "malformed two-frame predicts" `Quick
          test_malformed_two_frame_predicts;
        Alcotest.test_case "crafted layouts: error reply, serves on" `Quick
          test_crafted_layouts_e2e;
        Alcotest.test_case "digest bytes: each frame once per side" `Quick
          test_digest_bytes_once_per_side;
        Alcotest.test_case "served key = predict_key" `Quick
          test_served_key_is_predict_key;
        Alcotest.test_case "corpus job lifecycle" `Quick test_e2e_corpus_job;
        Alcotest.test_case "answered jobs retire after a cap" `Quick
          test_e2e_job_retention;
        Alcotest.test_case "unpolled jobs are retained up to a hard cap" `Quick
          test_e2e_job_retention_unpolled;
        Alcotest.test_case "drain on stop" `Quick test_e2e_drain_on_stop;
        Alcotest.test_case "retry recovers from overload" `Quick
          test_retry_overloaded_recovers;
        Alcotest.test_case "retry respects deadline" `Quick
          test_retry_respects_deadline;
      ] );
  ]
