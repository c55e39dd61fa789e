module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value

type config = { in_channels : int; base_channels : int; depth : int }

let default_config = { in_channels = 8; base_channels = 8; depth = 2 }

(* Layers in one flat array, the order of [params]: per resolution
   level (0 = full resolution) the encoder double conv, the transposed
   conv from the level below and the decoder double conv; then the
   bottleneck, the communication layer's self and cross pointwise
   convs, and the 1x1 head.  [frozen] is the same layers over constant
   views of the same weight tensors, for inference. *)
type t = { cfg : config; layers : Layer.t array; frozen : Layer.t array }

let enc l = 3 * l
let up l = (3 * l) + 1
let dec l = (3 * l) + 2
let bottleneck depth = 3 * depth
let comm_self depth = (3 * depth) + 1
let comm_cross depth = (3 * depth) + 2
let head depth = (3 * depth) + 3

let config_string c =
  Printf.sprintf "{in_channels=%d; base_channels=%d; depth=%d}" c.in_channels
    c.base_channels c.depth

(* The architectures [create] can build; [Some cause] otherwise. *)
let check_config c =
  if c.depth < 1 || c.depth > 2 then Some "depth must be 1 or 2"
  else if c.in_channels < 1 || c.base_channels < 1 then
    Some "channel counts must be positive"
  else None

let double_conv rng ~in_channels ~out_channels =
  Layer.seq
    [
      Layer.conv2d rng ~pad:1 ~in_channels ~out_channels ~ksize:3 ();
      Layer.leaky_relu 0.1;
      Layer.conv2d rng ~pad:1 ~in_channels:out_channels ~out_channels ~ksize:3 ();
      Layer.leaky_relu 0.1;
    ]

let create rng cfg =
  Option.iter
    (fun cause -> invalid_arg ("Siamese_unet.create: " ^ cause))
    (check_config cfg);
  let base = cfg.base_channels in
  let ch level = base * (1 lsl level) in
  (* Each level draws its decoder, then its up conv, then its encoder
     from [rng]: the seeded weights (and every fingerprint and golden
     built on them) depend on this order. *)
  let levels =
    Array.init cfg.depth (fun l ->
        let cin = if l = 0 then cfg.in_channels else ch (l - 1) in
        let c = ch l in
        let dec = double_conv rng ~in_channels:(2 * c) ~out_channels:c in
        let up =
          Layer.conv2d_transpose rng ~stride:2 ~in_channels:(ch (l + 1))
            ~out_channels:c ~ksize:2 ()
        in
        let enc = double_conv rng ~in_channels:cin ~out_channels:c in
        [| enc; up; dec |])
  in
  let cb = ch cfg.depth in
  let bottleneck = double_conv rng ~in_channels:(ch (cfg.depth - 1)) ~out_channels:cb in
  (* The communication layer merges the two bottlenecks through
     pointwise convolutions.  Writing it as [out_d = act (self b_d +
     cross b_other)] with the same (self, cross) weights for both dies
     keeps the architecture exactly equivariant under die exchange —
     the interchangeability the Siamese design is built for. *)
  let comm_self = Layer.pointwise rng ~in_channels:cb ~out_channels:cb () in
  let comm_cross = Layer.pointwise rng ~in_channels:cb ~out_channels:cb () in
  let head = Layer.pointwise rng ~in_channels:base ~out_channels:1 () in
  let layers =
    Array.concat
      (Array.to_list levels @ [ [| bottleneck; comm_self; comm_cross; head |] ])
  in
  { cfg; layers; frozen = Array.map Layer.frozen layers }

(* ------------------------------------------------------------------ *)
(* The Siamese topology (Fig. 3), over one batch [x : [2n; c; h; w]]  *)
(* holding die 0 of n samples, then die 1 of the same samples.  Both  *)
(* dies share every encoder and decoder weight, so each of those      *)
(* layers runs once over the whole batch; the communication layer is  *)
(* the only place the two halves meet.  Each sample's bits are those  *)
(* of the sample run alone, and operand order is part of the          *)
(* contract: it fixes the tape's parent lists and hence the backward  *)
(* order.                                                             *)
(* ------------------------------------------------------------------ *)

let run layers ~depth x =
  let layer i x = Layer.forward layers.(i) x in
  (* encoder: each level's activation is the skip its decoder level
     reads, deepest first.  The decoder walks the list, so a skip is
     garbage once its level has read it: with both dies in one batch,
     an activation kept past its use costs twice what a die's did. *)
  let rec encode l x skips =
    if l = depth then (layer (bottleneck depth) x, skips)
    else
      let a = layer (enc l) x in
      encode (l + 1) (V.maxpool2 a) (a :: skips)
  in
  let b, skips = encode 0 x [] in
  (* Communication layer (Fig. 3b): out_d = act (self b_d + cross
     b_other), the other die's cross term reached by swapping the
     batch's halves. *)
  let merged =
    V.leaky_relu 0.1
      (V.add
         (layer (comm_self depth) b)
         (V.swap_halves (layer (comm_cross depth) b)))
  in
  let rec decode l cur = function
    | [] -> layer (head depth) cur
    | skip :: rest ->
        let u = layer (up l) cur in
        decode (l - 1) (layer (dec l) (V.concat_channels [ u; skip ])) rest
  in
  decode (depth - 1) merged skips

let forward net f0 f1 =
  match V.unstack (run net.layers ~depth:net.cfg.depth (V.stack [ f0; f1 ])) with
  | [| c0; c1 |] -> (c0, c1)
  | _ -> assert false

(* Inference runs the same executor over the frozen layers, so no node
   records a backward and each intermediate dies as soon as the next
   layer has read it.  This is the contract the serve micro-batcher and
   its result cache depend on: a request's reply bits do not depend on
   the batch it joined. *)
let predict_batch net pairs =
  let n = Array.length pairs in
  if n = 0 then [||]
  else begin
    let x = T.stack (Array.append (Array.map fst pairs) (Array.map snd pairs)) in
    let c = T.unstack (V.data (run net.frozen ~depth:net.cfg.depth (V.const x))) in
    (* each sample comes back as [1; h; w]; flatten to a rank-2 map *)
    let map m = T.reshape m [| T.dim m 1; T.dim m 2 |] in
    Array.init n (fun i -> (map c.(i), map c.(n + i)))
  end

let predict net f0 f1 = (predict_batch net [| (f0, f1) |]).(0)

(* The whole network as one layer: its parameters in [layers] order. *)
let as_layer net = Layer.seq (Array.to_list net.layers)
let params net = Layer.params (as_layer net)
let num_params net = Layer.num_params (as_layer net)
let config net = net.cfg
let state net = Layer.state (as_layer net)

let load_state net snapshot = Layer.load_state (as_layer net) snapshot

(* Every weight as plain (shape, data): what [fingerprint] digests and
   [save] persists. *)
let weight_image net =
  List.map
    (fun p ->
      let d = V.data p in
      (T.shape d, Array.init (T.numel d) (T.get_flat d)))
    (params net)

let fingerprint net =
  Digest.to_hex
    (Digest.string (Marshal.to_string (net.cfg, weight_image net) []))

(* Persistence: a tagged Marshal image of the config plus raw
   (shape, data) pairs.  The file is only ever read back by [load], so
   the representation can stay internal. *)
type snapshot = {
  s_cfg : config;
  s_weights : (int array * float array) list;
}

let magic = "DCO3D-SIAUNET-V1"

let save net path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      Marshal.to_channel oc { s_cfg = net.cfg; s_weights = weight_image net } [])

exception Load_error of string

let load_error path cause =
  raise (Load_error (Printf.sprintf "Siamese_unet.load: %s: %s" path cause))

let invalid_architecture cfg cause =
  Printf.sprintf "invalid architecture %s: %s" (config_string cfg) cause

let load ?expect path =
  let ic =
    try open_in_bin path with Sys_error msg -> load_error path msg
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let snap : snapshot =
        try
          let tag = really_input_string ic (String.length magic) in
          if tag <> magic then load_error path "bad file magic";
          Marshal.from_channel ic
        with
        | End_of_file -> load_error path "truncated file"
        | Failure msg -> load_error path msg
      in
      (* Reject before building anything: a wrong-architecture file must
         fail here with a clear message, not deep inside a conv once a
         wrong-shaped network is already in use. *)
      let cfg = snap.s_cfg in
      Option.iter
        (fun cause -> load_error path (invalid_architecture cfg cause))
        (check_config cfg);
      (match expect with
      | Some e when e <> cfg ->
          load_error path
            (Printf.sprintf
               "architecture mismatch: file holds weights for %s, requested %s"
               (config_string cfg) (config_string e))
      | _ -> ());
      try
        let net = create (Dco3d_tensor.Rng.create 0) cfg in
        load_state net
          (List.map (fun (shape, data) -> T.make shape data) snap.s_weights);
        net
      with Invalid_argument msg ->
        load_error path
          (Printf.sprintf "weights disagree with the declared architecture %s (%s)"
             (config_string cfg) msg))
