type predict_payload = {
  f_bottom : Dco3d_tensor.Tensor.t;
  f_top : Dco3d_tensor.Tensor.t;
}

type flow_variant = Pin3d | Pin3d_cong

type flow_spec = {
  fl_design : string;
  fl_scale : float;
  fl_seed : int;
  fl_gcell : int;
  fl_variant : flow_variant;
}

(* What a client asks the balancer to route it to.  Matching is against
   the shard's model fingerprint. *)
type route_want =
  | Want_any
  | Want_fingerprint of string

(* The third async request class: corpus PPA cells and corpus dataset
   builds, keyed on disk by (netlist digest, flow config, seed). *)
type corpus_kind =
  | Corpus_ppa
  | Corpus_dataset of int  (* n_samples *)

type corpus_req = {
  cr_spec : Dco3d_corpus.Corpus.spec;
  cr_config : Dco3d_corpus.Corpus.flow_config;
  cr_kind : corpus_kind;
}

(* New constructors are appended at the END of request/reply so Marshal
   tags of existing constructors never shift between releases. *)
type request =
  | Ping
  | Predict of predict_payload
  | Flow_submit of flow_spec
  | Flow_poll of int
  | Stats
  | Hello of route_want
  | Corpus_submit of corpus_req
  | Corpus_poll of int

type envelope = { req : request; timeout_ms : float option }

type flow_summary = {
  fs_name : string;
  fs_overflow : int;
  fs_wirelength_um : float;
  fs_wns_ps : float;
  fs_tns_ps : float;
  fs_power_mw : float;
}

type job_status =
  | Job_queued
  | Job_running
  | Job_done of flow_summary
  | Job_failed of string

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
  | Status of job_status
  | Stats_reply of (string * float) list
  | Overloaded of { queue_len : int; capacity : int }
  | Timed_out
  | Server_error of string
  | Hello_reply of { h_fingerprint : string; h_shard : int }
  | Corpus_status of corpus_status

exception Protocol_error of string

let magic = "DCO3D-SERVE-V1"
(* Bumped whenever a message type's Marshal layout changes, so a peer
   built against another layout is refused instead of mis-decoded. *)
let version = 2
let max_frame_bytes = 256 * 1024 * 1024
let header_bytes = String.length magic + 1 + 4 + 16

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

let send_frame fd payload =
  let plen = String.length payload in
  if plen > max_frame_bytes then
    raise (Protocol_error (Printf.sprintf "frame too large: %d bytes" plen));
  let header = Bytes.create header_bytes in
  Bytes.blit_string magic 0 header 0 (String.length magic);
  Bytes.set_uint8 header (String.length magic) version;
  Bytes.set_int32_be header (String.length magic + 1) (Int32.of_int plen);
  Bytes.blit_string (Digest.string payload) 0 header (String.length magic + 5) 16;
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
  let digest = Bytes.sub_string header (String.length magic + 5) 16 in
  let payload = Bytes.create plen in
  (try read_all fd payload 0 plen
   with End_of_file -> raise (Protocol_error "truncated frame payload"));
  let payload = Bytes.unsafe_to_string payload in
  if Digest.string payload <> digest then
    raise (Protocol_error "frame digest mismatch");
  payload

(* The payload types are closure-free plain data, so Marshal round-trips
   them exactly (tensors travel as their shape + float array fields). *)
let send_value fd v = send_frame fd (Marshal.to_string v [])

let recv_value fd =
  let payload = recv_frame fd in
  try Marshal.from_string payload 0
  with Failure msg -> raise (Protocol_error ("undecodable payload: " ^ msg))

let send_request fd (e : envelope) = send_value fd e
let recv_request fd : envelope = recv_value fd
let send_reply fd (r : reply) = send_value fd r
let recv_reply fd : reply = recv_value fd

(* The balancer reads one raw frame per new connection to decide the
   route, then forwards those exact bytes to the chosen shard, which
   replays them through [decode_request] — no re-encoding, so the
   shard sees bit-for-bit what the client sent. *)
let decode_request payload : envelope =
  try Marshal.from_string payload 0
  with Failure msg -> raise (Protocol_error ("undecodable payload: " ^ msg))

(* Sent by a shard over the control channel right after connecting to
   the balancer, announcing what it serves. *)
type shard_hello = {
  sh_pid : int;
  sh_shard : int;
  sh_fingerprint : string;
}

let encode_shard_hello (h : shard_hello) = Marshal.to_string h []

let decode_shard_hello payload : shard_hello =
  try Marshal.from_string payload 0
  with Failure msg ->
    raise (Protocol_error ("undecodable shard hello: " ^ msg))

let predict_key (p : predict_payload) =
  Digest.to_hex (Digest.string (Marshal.to_string (p.f_bottom, p.f_top) []))

(* In-flight dedup identity of a corpus request: two submits carrying
   the same (spec, config, kind) share one job. *)
let corpus_key (r : corpus_req) =
  Digest.to_hex (Digest.string (Marshal.to_string r []))
