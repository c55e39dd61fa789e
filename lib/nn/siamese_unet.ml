module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value

type config = { in_channels : int; base_channels : int; depth : int }

let default_config = { in_channels = 8; base_channels = 8; depth = 2 }

(* One resolution level of the encoder/decoder. *)
type level = {
  enc : Layer.t;  (** double conv at this resolution *)
  up : Layer.t;  (** transposed conv from the level below *)
  dec : Layer.t;  (** double conv after skip concatenation *)
}

(* The int8 compilation of a network: one Quant program per layer,
   plus a fingerprint over every quantized bit. *)
type qnet = {
  q_cfg : config;
  q_levels : (Quant.t * Quant.t * Quant.t) array;  (** enc, up, dec *)
  q_bottleneck : Quant.t;
  q_comm_self : Quant.t;
  q_comm_cross : Quant.t;
  q_head : Quant.t;
  q_fp : string;
}

type t = {
  cfg : config;
  levels : level array;  (** index 0 = full resolution *)
  bottleneck : Layer.t;
  comm_self : Layer.t;  (** pointwise conv on the die's own bottleneck *)
  comm_cross : Layer.t;  (** pointwise conv on the other die's bottleneck *)
  head : Layer.t;  (** 1x1 conv to a single congestion channel *)
  mutable qcache : qnet option;
      (** memoized int8 compilation; invalidated on weight load *)
}

let double_conv rng ~in_channels ~out_channels =
  Layer.seq
    [
      Layer.conv2d rng ~pad:1 ~in_channels ~out_channels ~ksize:3 ();
      Layer.leaky_relu 0.1;
      Layer.conv2d rng ~pad:1 ~in_channels:out_channels ~out_channels ~ksize:3 ();
      Layer.leaky_relu 0.1;
    ]

let create rng cfg =
  if cfg.depth < 1 || cfg.depth > 2 then
    invalid_arg "Siamese_unet.create: depth must be 1 or 2";
  let base = cfg.base_channels in
  let ch level = base * (1 lsl level) in
  let levels =
    Array.init cfg.depth (fun l ->
        let cin = if l = 0 then cfg.in_channels else ch (l - 1) in
        let c = ch l in
        {
          enc = double_conv rng ~in_channels:cin ~out_channels:c;
          up =
            Layer.conv2d_transpose rng ~stride:2 ~in_channels:(ch (l + 1))
              ~out_channels:c ~ksize:2 ();
          dec = double_conv rng ~in_channels:(2 * c) ~out_channels:c;
        })
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
  { cfg; levels; bottleneck; comm_self; comm_cross; head; qcache = None }

(* Encoder for one die: returns skip activations (one per level) and the
   bottleneck activation. *)
let encode net x =
  let skips = Array.make (Array.length net.levels) x in
  let cur = ref x in
  Array.iteri
    (fun l level ->
      let a = level.enc.Layer.forward !cur in
      skips.(l) <- a;
      cur := V.maxpool2 a)
    net.levels;
  (skips, net.bottleneck.Layer.forward !cur)

(* Decoder for one die given its (possibly communicated) bottleneck. *)
let decode net skips bottom =
  let cur = ref bottom in
  for l = Array.length net.levels - 1 downto 0 do
    let level = net.levels.(l) in
    let up = level.up.Layer.forward !cur in
    let cat = V.concat_channels [ up; skips.(l) ] in
    cur := level.dec.Layer.forward cat
  done;
  net.head.Layer.forward !cur

let forward net f0 f1 =
  let skips0, b0 = encode net f0 in
  let skips1, b1 = encode net f1 in
  (* Communication layer (Fig. 3b): mix the two bottlenecks through
     shared pointwise convolutions and hand each decoder a view of both
     dies. *)
  let communicate own other =
    V.leaky_relu 0.1
      (V.add
         (net.comm_self.Layer.forward own)
         (net.comm_cross.Layer.forward other))
  in
  let b0' = communicate b0 b1 in
  let b1' = communicate b1 b0 in
  (decode net skips0 b0', decode net skips1 b1')

let predict net f0 f1 =
  let c0, c1 = forward net (V.const f0) (V.const f1) in
  let to_map v =
    let d = V.data v in
    T.reshape (T.copy d) [| T.dim d 1; T.dim d 2 |]
  in
  (to_map c0, to_map c1)

(* ------------------------------------------------------------------ *)
(* Batched inference.                                                  *)
(*                                                                     *)
(* The same network applied to a rank-4 [n; c; h; w] batch through the *)
(* Layer.forward_batch path: one im2col/GEMM per conv layer for the    *)
(* whole batch.  Every step is bit-identical to the per-sample         *)
(* forward (the batched kernels only add GEMM columns, the elementwise *)
(* steps use the same scalar formulas), which is what lets the serve   *)
(* micro-batcher coalesce requests without changing any reply bit.     *)
(* ------------------------------------------------------------------ *)

let encode_batch net x =
  let skips = Array.make (Array.length net.levels) x in
  let cur = ref x in
  Array.iteri
    (fun l level ->
      let a = level.enc.Layer.forward_batch !cur in
      skips.(l) <- a;
      cur := T.maxpool2_batch a)
    net.levels;
  (skips, net.bottleneck.Layer.forward_batch !cur)

let decode_batch net skips bottom =
  let cur = ref bottom in
  for l = Array.length net.levels - 1 downto 0 do
    let level = net.levels.(l) in
    let up = level.up.Layer.forward_batch !cur in
    let cat = T.concat_channels_batch [ up; skips.(l) ] in
    cur := level.dec.Layer.forward_batch cat
  done;
  net.head.Layer.forward_batch !cur

let forward_batch net x0 x1 =
  let skips0, b0 = encode_batch net x0 in
  let skips1, b1 = encode_batch net x1 in
  let communicate own other =
    T.leaky_relu 0.1
      (T.add
         (net.comm_self.Layer.forward_batch own)
         (net.comm_cross.Layer.forward_batch other))
  in
  let b0' = communicate b0 b1 in
  let b1' = communicate b1 b0 in
  (decode_batch net skips0 b0', decode_batch net skips1 b1')

(* ------------------------------------------------------------------ *)
(* Quantized int8 inference.                                           *)
(*                                                                     *)
(* The same data flow as forward_batch with each layer replaced by its *)
(* Quant compilation: spatial convs run on the int8 engine with fused  *)
(* requantize/bias/activation, the pointwise communication and head    *)
(* layers stay float32.  Per-sample activation quantization keeps the  *)
(* batching contract: element [b] of a batched quantized predict is    *)
(* bit-identical to the singleton quantized predict of sample [b].     *)
(* ------------------------------------------------------------------ *)

let q_programs q =
  List.concat
    [
      Array.to_list q.q_levels |> List.concat_map (fun (e, u, d) -> [ e; u; d ]);
      [ q.q_bottleneck; q.q_comm_self; q.q_comm_cross; q.q_head ];
    ]

let q_fingerprint_of cfg progs =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string ("i8", cfg, List.map Quant.to_parts progs) []))

let qnet_fingerprint q = q.q_fp

let quantize net =
  (* The second conv of the level-0 encoder stays float32.  Its output
     is the full-resolution skip tensor, so any quantization error
     there reaches the prediction twice — directly through the skip
     concatenation into the last decoder block and again through the
     pooled deep path — which makes it the single largest contributor
     to int8/f32 divergence (measured on the golden-parity harness).
     Pinning that one conv costs a single full-resolution conv at the
     network's thinnest channel count; everything else with spatial
     extent quantizes. *)
  let q_levels =
    Array.mapi
      (fun i l ->
        ( (if i = 0 then Quant.of_layer ~quantize_conv:(fun c -> c <> 1) l.enc
           else Quant.of_layer l.enc),
          Quant.of_layer l.up,
          Quant.of_layer l.dec ))
      net.levels
  in
  let q =
    {
      q_cfg = net.cfg;
      q_levels;
      q_bottleneck = Quant.of_layer net.bottleneck;
      q_comm_self = Quant.of_layer net.comm_self;
      q_comm_cross = Quant.of_layer net.comm_cross;
      q_head = Quant.of_layer net.head;
      q_fp = "";
    }
  in
  { q with q_fp = q_fingerprint_of net.cfg (q_programs q) }

let quantized net =
  match net.qcache with
  | Some q -> q
  | None ->
      let q = quantize net in
      net.qcache <- Some q;
      q

let encode_batch_q q x =
  let skips = Array.make (Array.length q.q_levels) x in
  let cur = ref x in
  Array.iteri
    (fun l (enc, _, _) ->
      let a = Quant.forward_batch enc !cur in
      skips.(l) <- a;
      cur := T.maxpool2_batch a)
    q.q_levels;
  (skips, Quant.forward_batch q.q_bottleneck !cur)

let decode_batch_q q skips bottom =
  let cur = ref bottom in
  for l = Array.length q.q_levels - 1 downto 0 do
    let _, up, dec = q.q_levels.(l) in
    let u = Quant.forward_batch up !cur in
    cur := Quant.forward_batch dec (T.concat_channels_batch [ u; skips.(l) ])
  done;
  Quant.forward_batch q.q_head !cur

let forward_batch_q q x0 x1 =
  let skips0, b0 = encode_batch_q q x0 in
  let skips1, b1 = encode_batch_q q x1 in
  let communicate own other =
    T.leaky_relu 0.1
      (T.add
         (Quant.forward_batch q.q_comm_self own)
         (Quant.forward_batch q.q_comm_cross other))
  in
  let b0' = communicate b0 b1 in
  let b1' = communicate b1 b0 in
  (decode_batch_q q skips0 b0', decode_batch_q q skips1 b1')

let predict_batch ?(numeric = `F32) net pairs =
  if Array.length pairs = 0 then [||]
  else begin
    let x0 = T.stack (Array.map fst pairs) in
    let x1 = T.stack (Array.map snd pairs) in
    let c0, c1 =
      match numeric with
      | `F32 -> forward_batch net x0 x1
      | `I8 -> forward_batch_q (quantized net) x0 x1
    in
    (* each sample comes back as [1; h; w]; flatten to the rank-2 map
       [predict] returns *)
    let split c =
      Array.map
        (fun m -> T.reshape m [| T.dim m 1; T.dim m 2 |])
        (T.unstack c)
    in
    Array.map2 (fun a b -> (a, b)) (split c0) (split c1)
  end

let all_layers net =
  List.concat
    [
      Array.to_list net.levels
      |> List.concat_map (fun l -> [ l.enc; l.up; l.dec ]);
      [ net.bottleneck; net.comm_self; net.comm_cross; net.head ];
    ]

let params net = List.concat_map (fun l -> l.Layer.params) (all_layers net)
let num_params net = List.fold_left (fun acc p -> acc + V.numel p) 0 (params net)
let config net = net.cfg

let state net = List.map (fun p -> T.copy (V.data p)) (params net)

let fingerprint net =
  let weights =
    List.map
      (fun p ->
        let d = V.data p in
        (T.shape d, Array.init (T.numel d) (T.get_flat d)))
      (params net)
  in
  Digest.to_hex (Digest.string (Marshal.to_string (net.cfg, weights) []))

let load_state net snapshot =
  let ps = params net in
  if List.length snapshot <> List.length ps then
    invalid_arg "Siamese_unet.load_state: parameter count mismatch";
  List.iter2
    (fun p s ->
      let d = V.data p in
      if not (T.same_shape d s) then
        invalid_arg "Siamese_unet.load_state: shape mismatch";
      for i = 0 to T.numel d - 1 do
        T.set_flat d i (T.get_flat s i)
      done)
    ps snapshot;
  (* the memoized int8 compilation captured the old weights *)
  net.qcache <- None

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
      let snap =
        {
          s_cfg = net.cfg;
          s_weights =
            List.map
              (fun p ->
                let d = V.data p in
                (T.shape d, Array.init (T.numel d) (T.get_flat d)))
              (params net);
        }
      in
      Marshal.to_channel oc snap [])

exception Load_error of string

let load_error path cause =
  raise (Load_error (Printf.sprintf "Siamese_unet.load: %s: %s" path cause))

let config_string c =
  Printf.sprintf "{in_channels=%d; base_channels=%d; depth=%d}" c.in_channels
    c.base_channels c.depth

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
      if cfg.in_channels < 1 || cfg.base_channels < 1 || cfg.depth < 1
         || cfg.depth > 2
      then load_error path ("invalid architecture " ^ config_string cfg);
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

(* ------------------------------------------------------------------ *)
(* Quantized persistence.                                              *)
(*                                                                     *)
(* A standalone int8 artifact: config plus the Quant parts of every    *)
(* layer program, framed as magic + MD5 digest + payload so that any   *)
(* corruption is caught deterministically at load, before any of the   *)
(* packed bytes reach a kernel.                                        *)
(* ------------------------------------------------------------------ *)

let qmagic = "DCO3D-QUNET-V1"

let save_quantized q path =
  let payload =
    Marshal.to_string (q.q_cfg, List.map Quant.to_parts (q_programs q)) []
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc qmagic;
      output_string oc (Digest.string payload);
      output_string oc payload)

let qload_error path cause =
  raise
    (Load_error (Printf.sprintf "Siamese_unet.load_quantized: %s: %s" path cause))

(* Rebuild the float32 parameter snapshot a quantized program implies:
   the dequantized weights and stored biases, ordered exactly as the
   layer's [params] (weight before bias, convs in program order). *)
let state_of_program prog =
  List.concat_map
    (function
      | Quant.F_conv { weight; bias; _ } -> weight :: Option.to_list bias
      | _ -> [])
    (Quant.dequantized prog).Quant.units

let load_quantized path =
  let ic = try open_in_bin path with Sys_error msg -> qload_error path msg in
  let cfg, parts =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          let tag = really_input_string ic (String.length qmagic) in
          if tag <> qmagic then qload_error path "bad file magic";
          let digest = really_input_string ic 16 in
          let len = in_channel_length ic - pos_in ic in
          let payload = really_input_string ic len in
          if Digest.string payload <> digest then
            qload_error path "payload digest mismatch (corrupt file)";
          (Marshal.from_string payload 0 : config * Quant.parts list)
        with
        | End_of_file -> qload_error path "truncated file"
        | Failure msg -> qload_error path msg)
  in
  if cfg.in_channels < 1 || cfg.base_channels < 1 || cfg.depth < 1
     || cfg.depth > 2
  then qload_error path ("invalid architecture " ^ config_string cfg);
  if List.length parts <> (3 * cfg.depth) + 4 then
    qload_error path
      (Printf.sprintf "expected %d layer programs, file holds %d"
         ((3 * cfg.depth) + 4) (List.length parts));
  let progs =
    try List.map Quant.of_parts parts
    with Invalid_argument msg -> qload_error path msg
  in
  let arr = Array.of_list progs in
  let q =
    let q0 =
      {
        q_cfg = cfg;
        q_levels =
          Array.init cfg.depth (fun l ->
              (arr.(3 * l), arr.((3 * l) + 1), arr.((3 * l) + 2)));
        q_bottleneck = arr.(3 * cfg.depth);
        q_comm_self = arr.((3 * cfg.depth) + 1);
        q_comm_cross = arr.((3 * cfg.depth) + 2);
        q_head = arr.((3 * cfg.depth) + 3);
        q_fp = "";
      }
    in
    { q0 with q_fp = q_fingerprint_of cfg (q_programs q0) }
  in
  (* The float side of the returned network carries the dequantized
     (fake-quantized) weights — the function the int8 path effectively
     computes up to integer rounding — while the seeded qcache serves
     the exact artifact on the int8 path. *)
  try
    let net = create (Dco3d_tensor.Rng.create 0) cfg in
    load_state net (List.concat_map state_of_program progs);
    net.qcache <- Some q;
    net
  with Invalid_argument msg ->
    qload_error path
      (Printf.sprintf "programs disagree with the declared architecture %s (%s)"
         (config_string cfg) msg)
