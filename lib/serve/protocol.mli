(** Wire protocol of the [dco3d serve] daemon.

    Every message travels as length-prefixed binary frames, mirroring
    the on-disk framing of {!Dco3d_framing.Framing} (magic + digest +
    Marshal payload) plus a version and a length:

    {v
    "DCO3D-SERVE-V1" | u8 version (4) | u32_be payload length
                     | 16-byte MD5(payload) | payload
    v}

    The digest makes truncated or corrupted frames fail loudly at the
    receiver instead of Marshal-decoding garbage.  A request is one
    envelope frame ([timeout_ms] and the request), except a [Predict]:
    its envelope frame carries no tensors, and a second frame whose
    payload is exactly [Marshal.to_string (f_bottom, f_top) []] follows.
    The MD5 the receiver verifies on that body frame is therefore the
    predict's content digest ({!predict_key}), which the daemon uses as
    its result-cache key without hashing the body again.  Replies are
    one frame each.  Frames are capped at {!max_frame_bytes}.

    An MD5 is no MAC: any peer can send a digest-valid frame of any
    layout.  {!read_request} therefore checks the runtime layout of
    every request it decodes against its static type before handing it
    out.  Replies are not checked.

    Version 4 has one async job class, the corpus class: a remote
    Pin-3D flow is a [Corpus_ppa] cell.  A peer speaking another
    version (3 had separate flow jobs) is refused with
    ["unsupported protocol version N"].

    Every MD5 this module computes adds the bytes it hashed to the
    [serve/digest_bytes] counter; those of {!corpus_key} also add them
    to [serve/corpus_key_bytes]. *)

type predict_payload = {
  f_bottom : Dco3d_tensor.Tensor.t;  (** raw [[7; ny; nx]] stack, bottom die *)
  f_top : Dco3d_tensor.Tensor.t;
}

type route_want =
  | Want_any  (** any live shard *)
  | Want_fingerprint of string  (** a shard with exactly this model fingerprint *)

(** The daemon's one async job class: corpus PPA cells (a remote
    Pin-3D flow, [dco3d client flow], is the [base] cell of a spec named
    after its profile) and corpus dataset builds, deduped in-flight by
    {!corpus_key} and cached on disk by
    [(netlist digest, flow config, seed)]. *)
type corpus_kind =
  | Corpus_ppa  (** run the full flow, report the PPA row *)
  | Corpus_dataset of int
      (** build an [n_samples] congestion dataset on the corpus
          design (warms the fleet's shared route cache), report its
          content digest *)

type corpus_req = {
  cr_spec : Dco3d_corpus.Corpus.spec;
  cr_config : Dco3d_corpus.Corpus.flow_config;
  cr_kind : corpus_kind;
}

type request =
  | Ping
  | Predict of predict_payload
  | Stats
  | Hello of route_want
      (** optional first request on a balanced connection: pins the
          route before the fd is handed to a shard.  Adding or removing
          a constructor moves Marshal tags, so it bumps the version. *)
  | Corpus_submit of corpus_req
  | Corpus_poll of int

type envelope = {
  req : request;
  timeout_ms : float option;
      (** per-request deadline, measured by the server from arrival;
          a request still queued past it is answered [Timed_out] *)
}

type corpus_result =
  | Corpus_row of Dco3d_corpus.Corpus.row
  | Corpus_dataset_built of {
      cd_design : string;
      cd_samples : int;
      cd_digest : string;  (** {!Dco3d_core.Dataset.digest} *)
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
  | Accepted of int  (** corpus job id *)
  | Stats_reply of (string * float) list
  | Overloaded of { queue_len : int; capacity : int }
      (** backpressure: the predict queue is past its high-water mark *)
  | Timed_out
  | Server_error of string
  | Hello_reply of { h_fingerprint : string; h_shard : int }
      (** answer to [Hello]: which shard the connection landed on *)
  | Corpus_status of corpus_status
      (** answer to [Corpus_submit] is [Accepted id]; this answers
          [Corpus_poll] *)

exception Protocol_error of string
(** Bad magic, unsupported version, oversized frame, digest mismatch,
    a payload that does not decode to the expected type, or a predict
    cut between its two frames. *)

exception Version_mismatch of int
(** A reply framed in another wire version, the peer's: raised by
    {!recv_reply} only.  Everywhere else a frame of another version is
    a {!Protocol_error}. *)

val version : int
(** The wire version this build speaks and frames every message in. *)

val max_frame_bytes : int

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
val read_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Short-transfer/EINTR-safe loops, shared with the control channel.
    [read_all] raises [End_of_file] if the peer closes mid-read. *)

type frame = {
  digest : Digest.t;  (** raw 16-byte MD5 of [payload], verified on receipt *)
  payload : string;
}

val send_frame : Unix.file_descr -> string -> unit
val recv_frame : Unix.file_descr -> frame
(** Raw framed payloads.  [recv_frame] raises [End_of_file] on a clean
    peer disconnect before any byte of the frame. *)

val encode_request : envelope -> string list
(** The frame payloads {!send_request} writes, in order: one for most
    requests, the envelope then the body for a [Predict]. *)

val send_request : Unix.file_descr -> envelope -> unit

val read_request : (unit -> frame) -> envelope * string option
(** [read_request next_frame] pulls one request's frames from
    [next_frame] and decodes them.  For a [Predict] the second result is
    [Some key], the hex MD5 of its body frame — equal to
    {!predict_key} of the decoded payload, taken from the digest the
    frame was verified with — and [None] for every other request.
    @raise End_of_file if [next_frame] does, before the first frame;
    {!Protocol_error} on a malformed frame or payload (one whose layout
    is not a version-4 request, down to the field kinds of a
    [Corpus_submit]), a predict whose body frame is missing, or predict
    tensors inside the envelope. *)

val recv_request : Unix.file_descr -> envelope * string option
(** {!read_request} on the frames of a socket. *)

(** A request as received, with only its envelope decoded: what the
    balancer routes on and forwards to a shard untouched. *)
type raw_request =
  | Raw of request * frame  (** any request but a predict, and its frame *)
  | Raw_predict of { envelope : frame; body : frame }
      (** a predict's two frames; the body is not decoded, its
          [digest] is the predict key *)

val recv_raw_request : Unix.file_descr -> raw_request
val raw_frames : raw_request -> frame list

val encode_frames : frame list -> string
val decode_frames : string -> frame list
(** The control-channel form of a routed connection's first frames:
    per frame its digest, a u32_be length and the payload.  Digests are
    carried, not recomputed: the balancer already verified them.
    [decode_frames ""] is [[]].
    @raise Protocol_error on a truncated encoding. *)

val max_handoff_bytes : int
(** Size bound of an encoding of one request's frames (a predict's
    two), the control channel's payload cap. *)

val send_reply : Unix.file_descr -> reply -> unit
val recv_reply : Unix.file_descr -> reply
(** @raise Version_mismatch on a reply frame of another version. *)

val predict_key : predict_payload -> string
(** Hex digest of the feature-map content alone (no envelope fields):
    MD5 of [Marshal.to_string (f_bottom, f_top) []].  The reference
    definition of the key {!read_request} returns; the server combines
    it with the model fingerprint to key the result cache. *)

val corpus_key : corpus_req -> string
(** Hex digest of a corpus request's full content — the server's
    in-flight dedup identity: concurrent submits of the same request
    share one job id.  Counts its bytes on [serve/digest_bytes] and
    [serve/corpus_key_bytes]. *)

(** Announcement a shard sends over the balancer's control channel when
    it registers. *)
type shard_hello = {
  sh_pid : int;
  sh_shard : int;
  sh_fingerprint : string;
}

val encode_shard_hello : shard_hello -> string
val decode_shard_hello : string -> shard_hello
