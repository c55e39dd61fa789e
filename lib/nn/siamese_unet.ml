module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value

type config = { in_channels : int; base_channels : int; depth : int }

let default_config = { in_channels = 8; base_channels = 8; depth = 2 }

(* Layers in one flat array, the order of [params]: per resolution
   level (0 = full resolution) the encoder double conv, the transposed
   conv from the level below and the decoder double conv; then the
   bottleneck, the communication layer's self and cross pointwise
   convs, and the 1x1 head. *)
type t = { cfg : config; layers : Layer.t array }

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
  { cfg; layers }

(* ------------------------------------------------------------------ *)
(* The Siamese topology (Fig. 3), written once over the operations it *)
(* needs.  One instance runs on the autodiff tape, one on batches of  *)
(* plain tensors.  Operand order is part of the contract: it fixes    *)
(* the tape's parent lists and hence the backward order.              *)
(* ------------------------------------------------------------------ *)

type 'a ops = {
  layer : int -> 'a -> 'a;  (** apply [layers.(i)] *)
  pool : 'a -> 'a;  (** 2x2 max-pool *)
  concat : 'a list -> 'a;  (** channel concatenation *)
  merge : 'a -> 'a -> 'a;  (** add, then leaky ReLU *)
}

let siamese ops ~depth x0 x1 =
  (* Encoder for one die: returns skip activations (one per level) and
     the bottleneck activation. *)
  let encode x =
    let skips = Array.make depth x in
    let cur = ref x in
    for l = 0 to depth - 1 do
      let a = ops.layer (enc l) !cur in
      skips.(l) <- a;
      cur := ops.pool a
    done;
    (skips, ops.layer (bottleneck depth) !cur)
  in
  (* Decoder for one die given its communicated bottleneck. *)
  let decode skips bottom =
    let cur = ref bottom in
    for l = depth - 1 downto 0 do
      let u = ops.layer (up l) !cur in
      cur := ops.layer (dec l) (ops.concat [ u; skips.(l) ])
    done;
    ops.layer (head depth) !cur
  in
  let skips0, b0 = encode x0 in
  let skips1, b1 = encode x1 in
  (* Communication layer (Fig. 3b): mix the two bottlenecks through
     shared pointwise convolutions and hand each decoder a view of both
     dies. *)
  let communicate own other =
    ops.merge
      (ops.layer (comm_self depth) own)
      (ops.layer (comm_cross depth) other)
  in
  let b0' = communicate b0 b1 in
  let b1' = communicate b1 b0 in
  (decode skips0 b0', decode skips1 b1')

let forward net f0 f1 =
  let ops =
    {
      layer = (fun i x -> Layer.forward net.layers.(i) x);
      pool = V.maxpool2;
      concat = V.concat_channels;
      merge = (fun a b -> V.leaky_relu 0.1 (V.add a b));
    }
  in
  siamese ops ~depth:net.cfg.depth f0 f1

let predict net f0 f1 =
  let c0, c1 = forward net (V.const f0) (V.const f1) in
  let to_map v =
    let d = V.data v in
    T.reshape (T.copy d) [| T.dim d 1; T.dim d 2 |]
  in
  (to_map c0, to_map c1)

(* ------------------------------------------------------------------ *)
(* Batched inference: the topology over [Layer.forward_batch].        *)
(* ------------------------------------------------------------------ *)

(* Each conv is one batched gather-GEMM call for the whole batch,
   bit-identical to the per-sample tape forward (the batched kernels
   only add GEMM columns, the elementwise steps use the same scalar
   formulas), which is what lets the serve micro-batcher coalesce
   requests without changing any reply bit. *)
let predict_batch net pairs =
  if Array.length pairs = 0 then [||]
  else begin
    let ops =
      {
        layer = (fun i x -> Layer.forward_batch net.layers.(i) x);
        pool = T.maxpool2_batch;
        concat = T.concat_channels_batch;
        merge = (fun a b -> T.leaky_relu 0.1 (T.add a b));
      }
    in
    let x0 = T.stack (Array.map fst pairs) in
    let x1 = T.stack (Array.map snd pairs) in
    let c0, c1 = siamese ops ~depth:net.cfg.depth x0 x1 in
    (* each sample comes back as [1; h; w]; flatten to the rank-2 map
       [predict] returns *)
    let split c =
      Array.map
        (fun m -> T.reshape m [| T.dim m 1; T.dim m 2 |])
        (T.unstack c)
    in
    Array.map2 (fun a b -> (a, b)) (split c0) (split c1)
  end

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
