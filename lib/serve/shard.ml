(* Shard-side of the balancer's control channel.

   A shard is a normal serving process ([Server.start_detached] — full
   batcher/LRU/spill/job pipeline, no listening socket) that dials the
   balancer's control socket, announces itself with a [shard_hello],
   and then loops on control messages:

     'C'  adopt the attached fd as a client connection; the payload,
          when non-empty, holds the request frames the balancer already
          consumed for routing ([Protocol.encode_frames]), replayed as
          the connection's first request
     'D'  drain: stop gracefully (spilling the hot set) and exit

   EOF on the control channel means the balancer died; the shard drains
   and exits too rather than lingering unreachable. *)

module P = Protocol
module Obs = Dco3d_obs.Obs

let c_adopted = Obs.counter "shard/adopted"

type outcome = Drained | Balancer_gone

let run ~ctl_path (cfg : Server.config) predictor =
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect sock (Unix.ADDR_UNIX ctl_path)
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let t = Server.start_detached cfg predictor in
  let hello =
    {
      P.sh_pid = Unix.getpid ();
      sh_shard = cfg.Server.shard_id;
      sh_fingerprint = Server.fingerprint t;
    }
  in
  (match Fdpass.send_ctl sock ~tag:'H' (P.encode_shard_hello hello) with
   | () -> ()
   | exception e ->
       Server.stop t;
       (try Unix.close sock with Unix.Unix_error _ -> ());
       raise e);
  let rec loop () =
    match Fdpass.recv_ctl sock with
    | None -> Balancer_gone
    | Some ('C', payload, Some fd) ->
        (match P.decode_frames payload with
         | initial ->
             if Server.adopt_connection t ~initial fd then Obs.incr c_adopted
         | exception P.Protocol_error _ -> (
             try Unix.close fd with Unix.Unix_error _ -> ()));
        loop ()
    | Some ('D', _, fd) ->
        Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fd;
        Drained
    | Some (_, _, fd) ->
        (* Unknown tag from a newer balancer: drop any descriptor and
           keep serving rather than dying on it. *)
        Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fd;
        loop ()
    | exception P.Protocol_error _ -> Balancer_gone
    | exception Unix.Unix_error _ -> Balancer_gone
  in
  let outcome = loop () in
  Server.stop t;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  outcome
