type predict_payload = {
  f_bottom : Dco3d_tensor.Tensor.t;
  f_top : Dco3d_tensor.Tensor.t;
}

(* What a client asks the balancer to route it to.  Matching is against
   the shard's model fingerprint. *)
type route_want =
  | Want_any
  | Want_fingerprint of string

(* The async request class: corpus PPA cells and corpus dataset builds,
   keyed on disk by (netlist digest, flow config, seed). *)
type corpus_kind =
  | Corpus_ppa
  | Corpus_dataset of int  (* n_samples *)

type corpus_req = {
  cr_spec : Dco3d_corpus.Corpus.spec;
  cr_config : Dco3d_corpus.Corpus.flow_config;
  cr_kind : corpus_kind;
}

(* Adding or removing a constructor of request/reply moves the Marshal
   tags of the later ones: bump [version] with it. *)
type request =
  | Ping
  | Predict of predict_payload
  | Stats
  | Hello of route_want
  | Corpus_submit of corpus_req
  | Corpus_poll of int

type envelope = { req : request; timeout_ms : float option }

type corpus_result =
  | Corpus_row of Dco3d_corpus.Corpus.row
  | Corpus_dataset_built of {
      cd_design : string;
      cd_samples : int;
      cd_digest : string;
    }

type corpus_status =
  | Corpus_queued
  | Corpus_running
  | Corpus_done of corpus_result
  | Corpus_failed of string

type reply =
  | Pong
  | Predicted of {
      c_bottom : Dco3d_tensor.Tensor.t;
      c_top : Dco3d_tensor.Tensor.t;
      cache_hit : bool;
    }
  | Accepted of int
  | Stats_reply of (string * float) list
  | Overloaded of { queue_len : int; capacity : int }
  | Timed_out
  | Server_error of string
  | Hello_reply of { h_fingerprint : string; h_shard : int }
  | Corpus_status of corpus_status

exception Protocol_error of string

let magic = "DCO3D-SERVE-V1"
(* Bumped whenever a message type's Marshal layout changes, so a peer
   built against another layout is refused instead of mis-decoded.
   v3: a predict travels as an envelope frame and a body frame.
   v4: flow jobs are gone; a remote flow is a corpus PPA cell. *)
let version = 4
let max_frame_bytes = 256 * 1024 * 1024
let header_bytes = String.length magic + 1 + 4 + 16

(* Every byte this process runs through MD5 on the serving path: frame
   digests on both directions, plus any key computed from content. *)
let c_digest_bytes = Dco3d_obs.Obs.counter "serve/digest_bytes"

let digest s =
  Dco3d_obs.Obs.incr ~by:(String.length s) c_digest_bytes;
  Digest.string s

(* ------------------------------------------------------------------ *)
(* Raw IO.  [Unix.read]/[Unix.write] may move fewer bytes than asked   *)
(* and may be interrupted; loop until done.                            *)
(* ------------------------------------------------------------------ *)

let rec write_all fd buf off len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf off len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (off + n) (len - n)
  end

let read_all fd buf off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    let n =
      try Unix.read fd buf !off !len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    if n = 0 && !len > 0 then raise End_of_file;
    off := !off + n;
    len := !len - n
  done

type frame = { digest : Digest.t; payload : string }

let send_frame fd payload =
  let plen = String.length payload in
  if plen > max_frame_bytes then
    raise (Protocol_error (Printf.sprintf "frame too large: %d bytes" plen));
  let header = Bytes.create header_bytes in
  Bytes.blit_string magic 0 header 0 (String.length magic);
  Bytes.set_uint8 header (String.length magic) version;
  Bytes.set_int32_be header (String.length magic + 1) (Int32.of_int plen);
  Bytes.blit_string (digest payload) 0 header (String.length magic + 5) 16;
  write_all fd header 0 header_bytes;
  write_all fd (Bytes.unsafe_of_string payload) 0 plen

let recv_frame fd =
  let header = Bytes.create header_bytes in
  (* Distinguish "peer closed between frames" (End_of_file, a normal
     disconnect) from "closed mid-frame" (protocol error). *)
  (try read_all fd header 0 1 with End_of_file -> raise End_of_file);
  (try read_all fd header 1 (header_bytes - 1)
   with End_of_file -> raise (Protocol_error "truncated frame header"));
  if Bytes.sub_string header 0 (String.length magic) <> magic then
    raise (Protocol_error "bad frame magic");
  let v = Bytes.get_uint8 header (String.length magic) in
  if v <> version then
    raise (Protocol_error (Printf.sprintf "unsupported protocol version %d" v));
  let plen = Int32.to_int (Bytes.get_int32_be header (String.length magic + 1)) in
  if plen < 0 || plen > max_frame_bytes then
    raise (Protocol_error (Printf.sprintf "bad frame length %d" plen));
  let expected = Bytes.sub_string header (String.length magic + 5) 16 in
  let payload = Bytes.create plen in
  (try read_all fd payload 0 plen
   with End_of_file -> raise (Protocol_error "truncated frame payload"));
  let payload = Bytes.unsafe_to_string payload in
  let digest = digest payload in
  if digest <> expected then raise (Protocol_error "frame digest mismatch");
  { digest; payload }

(* The payload types are closure-free plain data, so Marshal round-trips
   them exactly (tensors travel as their shape + float array fields).
   [Marshal.from_string] raises [Failure] on a bad header and
   [Invalid_argument] on a payload shorter than one; both are a
   malformed message here. *)
let unmarshal what payload =
  try Marshal.from_string payload 0
  with e ->
    raise
      (Protocol_error
         (Printf.sprintf "undecodable %s: %s" what (Printexc.to_string e)))

let send_value fd v = send_frame fd (Marshal.to_string v [])
let recv_value fd = unmarshal "payload" (recv_frame fd).payload

(* ------------------------------------------------------------------ *)
(* Requests.  The envelope frame carries a [head]; a predict's tensors *)
(* follow as a frame of their own whose payload is exactly             *)
(* [Marshal.to_string (f_bottom, f_top) []], so the digest [recv_frame] *)
(* verified on it is the predict key: nothing hashes the body again.   *)
(* ------------------------------------------------------------------ *)

type head = Whole of request | Predict_follows

let encode_request (e : envelope) =
  match e.req with
  | Predict p ->
      [
        Marshal.to_string (Predict_follows, e.timeout_ms) [];
        Marshal.to_string (p.f_bottom, p.f_top) [];
      ]
  | req -> [ Marshal.to_string (Whole req, e.timeout_ms) [] ]

let send_request fd e = List.iter (send_frame fd) (encode_request e)

(* Marshal is untyped: a digest-valid frame of another type would be
   read as this one and crash whatever touches it.  The checks below
   look at the runtime representation of what came off the wire before
   it is used at its static type. *)
let is_float_block o =
  Obj.is_block o && (Obj.tag o = Obj.double_array_tag || Obj.size o = 0)

let is_tensor o =
  Obj.is_block o && Obj.tag o = 0 && Obj.size o = 2
  &&
  let shape = Obj.field o 0 and data = Obj.field o 1 in
  Obj.is_block shape && Obj.tag shape = 0 && is_float_block data
  &&
  let dims = List.init (Obj.size shape) (Obj.field shape) in
  List.for_all (fun d -> Obj.is_int d && (Obj.obj d : int) >= 0) dims
  && List.fold_left (fun n d -> n * (Obj.obj d : int)) 1 dims
     = Array.length (Obj.obj data : float array)

let is_block ~tag ~size o = Obj.is_block o && Obj.tag o = tag && Obj.size o = size
let is_string o = Obj.is_block o && Obj.tag o = Obj.string_tag
let is_float o = Obj.is_block o && Obj.tag o = Obj.double_tag

(* a constant constructor of a type with [n] of them *)
let is_const n o = Obj.is_int o && (Obj.obj o : int) >= 0 && (Obj.obj o : int) < n

(* a constructor with one argument, the [tag]-th of its type *)
let is_arg ~tag f o = is_block ~tag ~size:1 o && f (Obj.field o 0)
let is_option f o = is_const 1 o || is_arg ~tag:0 f o

(* a record, or a tuple, of these field kinds *)
let is_record kinds o =
  is_block ~tag:0 ~size:(List.length kinds) o
  && List.for_all Fun.id (List.mapi (fun i k -> k (Obj.field o i)) kinds)

(* [Corpus.spec], [Corpus.flow_config] and [corpus_kind], field by field *)
let is_corpus_req =
  let spec =
    is_record
      [
        is_string;  (* sp_name *)
        is_string;  (* sp_base *)
        is_float;  (* sp_scale *)
        Obj.is_int;  (* sp_seed *)
        is_option is_float;  (* sp_seq_fraction *)
        is_option Obj.is_int;  (* sp_depth *)
        is_option is_float;  (* sp_hub_fraction *)
        is_option is_float;  (* sp_locality *)
        is_option Obj.is_int;  (* sp_macros *)
      ]
  in
  let config = is_record [ is_string; is_const 2; Obj.is_int; is_float ] in
  let kind o = is_const 1 o || is_arg ~tag:0 Obj.is_int o in
  is_record [ spec; config; kind ]

(* The version-4 layout of [request]: [Ping] and [Stats] are the
   constants 0 and 1; [Predict], [Hello], [Corpus_submit] and
   [Corpus_poll] are the blocks tagged 0 to 3.  A [Predict] in the
   envelope is refused by [read_head] without touching its argument. *)
let is_request o =
  is_const 2 o
  || is_arg ~tag:0 (fun _ -> true) o
  || is_arg ~tag:1 (fun w -> is_const 1 w || is_arg ~tag:0 is_string w) o
  || is_arg ~tag:2 is_corpus_req o
  || is_arg ~tag:3 Obj.is_int o

let decode_head payload : head * float option =
  let o = unmarshal "payload" payload in
  let ok =
    is_record
      [
        (* [Predict_follows] or [Whole _] *)
        (fun h -> is_const 1 h || is_arg ~tag:0 is_request h);
        (* [timeout_ms] *)
        is_option is_float;
      ]
      o
  in
  if not ok then raise (Protocol_error "undecodable payload: not an envelope");
  Obj.obj o

let decode_body payload =
  let o = unmarshal "predict body" payload in
  if
    not
      (Obj.is_block o && Obj.tag o = 0 && Obj.size o = 2
      && is_tensor (Obj.field o 0)
      && is_tensor (Obj.field o 1))
  then raise (Protocol_error "undecodable predict body: not a tensor pair");
  let f_bottom, f_top = (Obj.obj o : Dco3d_tensor.Tensor.t * Dco3d_tensor.Tensor.t) in
  { f_bottom; f_top }

type raw_request =
  | Raw of request * frame
  | Raw_predict of { envelope : frame; body : frame }

(* A predict's body frame, its envelope already read: a clean EOF here
   still cuts the request in half. *)
let body_frame next_frame =
  try next_frame ()
  with End_of_file ->
    raise (Protocol_error "predict envelope without its body frame")

let read_head next_frame =
  let envelope = next_frame () in
  let head, timeout_ms = decode_head envelope.payload in
  match head with
  | Whole (Predict _) ->
      raise (Protocol_error "predict tensors outside their body frame")
  | Whole req -> (Raw (req, envelope), timeout_ms)
  | Predict_follows ->
      (Raw_predict { envelope; body = body_frame next_frame }, timeout_ms)

let recv_raw_request fd = fst (read_head (fun () -> recv_frame fd))

let raw_frames = function
  | Raw (_, f) -> [ f ]
  | Raw_predict { envelope; body } -> [ envelope; body ]

let read_request next_frame =
  match read_head next_frame with
  | Raw (req, _), timeout_ms -> ({ req; timeout_ms }, None)
  | Raw_predict { body; _ }, timeout_ms ->
      ( { req = Predict (decode_body body.payload); timeout_ms },
        Some (Digest.to_hex body.digest) )

let recv_request fd = read_request (fun () -> recv_frame fd)

let send_reply fd (r : reply) = send_value fd r
let recv_reply fd : reply = recv_value fd

(* A routed connection's first frames travel to the shard inside one
   control message: per frame, its 16-byte digest, a u32_be length and
   the payload.  The balancer verified each digest on receipt; the
   shard takes them as given instead of hashing the body again. *)
let encode_frames frames =
  let b = Buffer.create 64 in
  List.iter
    (fun f ->
      Buffer.add_string b f.digest;
      Buffer.add_int32_be b (Int32.of_int (String.length f.payload));
      Buffer.add_string b f.payload)
    frames;
  Buffer.contents b

(* A handoff carries at most a predict's two frames. *)
let max_handoff_bytes = 2 * (max_frame_bytes + 20)

let decode_frames s =
  let n = String.length s in
  let rec go off acc =
    if off = n then List.rev acc
    else if off + 20 > n then raise (Protocol_error "truncated handoff frames")
    else
      let len = Int32.to_int (String.get_int32_be s (off + 16)) in
      if len < 0 || off + 20 + len > n then
        raise (Protocol_error "truncated handoff frames");
      go (off + 20 + len)
        ({ digest = String.sub s off 16; payload = String.sub s (off + 20) len }
        :: acc)
  in
  go 0 []

(* Sent by a shard over the control channel right after connecting to
   the balancer, announcing what it serves. *)
type shard_hello = {
  sh_pid : int;
  sh_shard : int;
  sh_fingerprint : string;
}

let encode_shard_hello (h : shard_hello) = Marshal.to_string h []

let decode_shard_hello payload : shard_hello = unmarshal "shard hello" payload

(* The reference definition of the predict key: what [read_request]
   returns for a predict, computed from the tensors. *)
let predict_key (p : predict_payload) =
  Digest.to_hex (digest (Marshal.to_string (p.f_bottom, p.f_top) []))

(* In-flight dedup identity of a corpus request: two submits carrying
   the same (spec, config, kind) share one job.  Its bytes also count
   on a counter of their own, so that the frame bytes a daemon hashed
   can be told apart from its key bytes. *)
let c_corpus_key_bytes = Dco3d_obs.Obs.counter "serve/corpus_key_bytes"

let corpus_key (r : corpus_req) =
  let s = Marshal.to_string r [] in
  Dco3d_obs.Obs.incr ~by:(String.length s) c_corpus_key_bytes;
  Digest.to_hex (digest s)
