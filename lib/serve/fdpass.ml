(* Unix-domain control-channel messaging with SCM_RIGHTS descriptor
   passing.  A control message is: one tag byte sent via sendmsg (the
   descriptor, when present, rides as ancillary data on that byte),
   then a u32_be payload length, then the payload — the length and
   payload travel as ordinary stream bytes so the C stub never deals
   with partial transfers. *)

external send_tag_fd : Unix.file_descr -> int -> Unix.file_descr -> unit
  = "dco3d_fdpass_send"

external recv_tag_fd : Unix.file_descr -> int * Unix.file_descr
  = "dco3d_fdpass_recv"

let no_fd : Unix.file_descr = Obj.magic (-1)

let send_ctl sock ?fd ~tag payload =
  let fd = match fd with Some fd -> fd | None -> no_fd in
  send_tag_fd sock (Char.code tag) fd;
  let len = String.length payload in
  let lenb = Bytes.create 4 in
  Bytes.set_int32_be lenb 0 (Int32.of_int len);
  Protocol.write_all sock lenb 0 4;
  if len > 0 then
    Protocol.write_all sock (Bytes.unsafe_of_string payload) 0 len

let recv_ctl sock =
  let tag, fd = recv_tag_fd sock in
  if tag < 0 then None
  else begin
    let fd = if Obj.magic fd < 0 then None else Some fd in
    let close_fd () = match fd with Some fd -> Unix.close fd | None -> () in
    match
      let lenb = Bytes.create 4 in
      Protocol.read_all sock lenb 0 4;
      let len = Int32.to_int (Bytes.get_int32_be lenb 0) in
      if len < 0 || len > Protocol.max_handoff_bytes then
        raise (Protocol.Protocol_error
                 (Printf.sprintf "bad control payload length %d" len));
      let payload = Bytes.create len in
      Protocol.read_all sock payload 0 len;
      Bytes.unsafe_to_string payload
    with
    | payload -> Some (Char.chr (tag land 0xff), payload, fd)
    | exception e -> close_fd (); raise e
  end
