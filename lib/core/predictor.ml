module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module V = Dco3d_autodiff.Value
module Opt = Dco3d_autodiff.Optimizer
module SiaUNet = Dco3d_nn.Siamese_unet
module Fm = Dco3d_congestion.Feature_maps
module Metrics = Dco3d_congestion.Metrics
module Obs = Dco3d_obs.Obs

let log_src = Logs.Src.create "dco3d.predictor" ~doc:"Algorithm 1 training"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = { net : SiaUNet.t; input_hw : int; label_scale : float }

type report = { train_loss : float array; test_loss : float array; epochs : int }

(* What a network, its resolution and its label scale must agree on
   before any forward can succeed; [Some cause] when they do not. *)
let mismatch net ~input_hw ~label_scale =
  let cfg = SiaUNet.config net in
  let granularity = 1 lsl cfg.SiaUNet.depth in
  if input_hw < 1 then
    Some (Printf.sprintf "invalid network resolution %d" input_hw)
  else if not (Float.is_finite label_scale) || label_scale <= 0. then
    Some (Printf.sprintf "invalid label scale %g" label_scale)
  else if cfg.SiaUNet.in_channels <> Fm.n_channels then
    Some
      (Printf.sprintf
         "weights expect %d input channels but the feature pipeline produces %d"
         cfg.SiaUNet.in_channels Fm.n_channels)
  else if input_hw mod granularity <> 0 then
    Some
      (Printf.sprintf "network resolution %d is not divisible by 2^depth = %d"
         input_hw granularity)
  else None

let make net ~input_hw ~label_scale =
  match mismatch net ~input_hw ~label_scale with
  | Some cause -> invalid_arg ("Predictor.make: " ^ cause)
  | None -> { net; input_hw; label_scale }

let eq4_loss c0 c1 t0 t1 =
  V.scale 0.5 (V.add (V.rmse_frobenius c0 t0) (V.rmse_frobenius c1 t1))

(* A raw GCell feature stack at network resolution. *)
let fmap ~input_hw stack = Fm.resize_stack (Fm.normalize stack) input_hw input_hw

(* A predicted map back at the GCell resolution of [like] and in
   ground-truth units; overflow maps are non-negative by definition. *)
let post t ~like m =
  let nx = T.dim like 2 and ny = T.dim like 1 in
  T.relu (T.scale t.label_scale (T.resize_nearest m ny nx))

(* Preprocess one sample into network-resolution tensors. *)
let prep ~input_hw ~label_scale (s : Dataset.sample) =
  let fmap = fmap ~input_hw in
  let lmap m =
    T.reshape
      (T.scale (1. /. label_scale) (T.resize_nearest m input_hw input_hw))
      [| 1; input_hw; input_hw |]
  in
  (fmap s.Dataset.f_bottom, fmap s.Dataset.f_top,
   lmap s.Dataset.c_bottom, lmap s.Dataset.c_top)

let dataset_loss net ~input_hw ~label_scale (d : Dataset.t) =
  if Array.length d.Dataset.samples = 0 then 0.
  else begin
    let acc = ref 0. in
    Array.iter
      (fun s ->
        let f0, f1, t0, t1 = prep ~input_hw ~label_scale s in
        let c0, c1 = SiaUNet.forward net (V.const f0) (V.const f1) in
        acc := !acc +. T.get_flat (V.data (eq4_loss c0 c1 t0 t1)) 0)
      d.Dataset.samples;
    !acc /. float_of_int (Array.length d.Dataset.samples)
  end

let train ?(epochs = 12) ?(lr = 2e-3) ?(input_hw = 32) ?(base_channels = 8)
    ?(augment = true) ?(seed = 3) ~train ~test () =
  Obs.with_span "predictor" @@ fun () ->
  let rng = Rng.create (seed lxor 0x9a7) in
  let net =
    SiaUNet.create rng
      { SiaUNet.in_channels = Fm.n_channels; base_channels; depth = 2 }
  in
  let label_scale = Dataset.label_scale train in
  let t = make net ~input_hw ~label_scale in
  let opt = Opt.adam ~lr (SiaUNet.params net) in
  (* pre-expand the augmented training set (the paper's 8x) *)
  let train_samples =
    if augment then
      Array.of_list
        (List.concat_map Dataset.augment8 (Array.to_list train.Dataset.samples))
    else train.Dataset.samples
  in
  let prepped =
    Array.map (prep ~input_hw ~label_scale) train_samples
  in
  let train_loss = Array.make epochs 0. in
  let test_loss = Array.make epochs 0. in
  let order = Array.init (Array.length prepped) Fun.id in
  for epoch = 0 to epochs - 1 do
    Obs.with_span (Printf.sprintf "epoch:%d" epoch) @@ fun () ->
    (* step decay keeps late epochs from bouncing around the optimum *)
    if epoch = (2 * epochs) / 3 then Opt.set_lr opt (lr *. 0.3);
    Rng.shuffle rng order;
    let acc = ref 0. in
    Array.iter
      (fun k ->
        let f0, f1, t0, t1 = prepped.(k) in
        let c0, c1 = SiaUNet.forward net (V.const f0) (V.const f1) in
        let loss = eq4_loss c0 c1 t0 t1 in
        acc := !acc +. T.get_flat (V.data loss) 0;
        V.backward loss;
        Opt.step opt)
      order;
    train_loss.(epoch) <-
      !acc /. float_of_int (max 1 (Array.length prepped));
    test_loss.(epoch) <- dataset_loss net ~input_hw ~label_scale test;
    Log.info (fun m ->
        m "epoch %d/%d: train %.4f test %.4f" (epoch + 1) epochs
          train_loss.(epoch) test_loss.(epoch))
  done;
  (t, { train_loss; test_loss; epochs })

let predict_batch t pairs =
  let fmap = fmap ~input_hw:t.input_hw in
  let outs =
    SiaUNet.predict_batch t.net
      (Array.map (fun (f0, f1) -> (fmap f0, fmap f1)) pairs)
  in
  Array.map2
    (fun (like, _) (c0, c1) -> (post t ~like c0, post t ~like c1))
    pairs outs

let predict t f_bottom f_top =
  let fmap = fmap ~input_hw:t.input_hw in
  let c0, c1 = SiaUNet.predict t.net (fmap f_bottom) (fmap f_top) in
  (post t ~like:f_bottom c0, post t ~like:f_bottom c1)

let fingerprint t =
  (* The "f32" tag is part of the digested value: serve cache keys,
     spill files and ledger goldens were all made with it. *)
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (t.input_hw, t.label_scale, ("f32", SiaUNet.fingerprint t.net))
          []))

let evaluate t (d : Dataset.t) =
  (* metrics at the network resolution H x W, as the paper evaluates at
     its fixed 224x224 — comparing an upsampled low-resolution
     prediction against full-resolution labels would punish detail the
     model never saw *)
  let at_hw m = T.resize_nearest m t.input_hw t.input_hw in
  Array.to_list d.Dataset.samples
  |> List.concat_map (fun (s : Dataset.sample) ->
         let p0, p1 = predict t s.Dataset.f_bottom s.Dataset.f_top in
         let score p truth =
           let p = at_hw p and truth = at_hw truth in
           (Metrics.nrmse p truth, Metrics.ssim p truth)
         in
         [ score p0 s.Dataset.c_bottom; score p1 s.Dataset.c_top ])

(* A predictor on disk: a magic-tagged (resolution, label scale) header
   plus a companion [.net] file holding the network weights. *)
let magic = "DCO3D-PREDICTOR-V1"

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      Marshal.to_channel oc (t.input_hw, t.label_scale) []);
  SiaUNet.save t.net (path ^ ".net")

exception Load_error of string

let load_error path cause =
  raise (Load_error (Printf.sprintf "Predictor.load: %s: %s" path cause))

let load ?expect path =
  let ic =
    try open_in_bin path with Sys_error msg -> load_error path msg
  in
  let input_hw, label_scale =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          let tag = really_input_string ic (String.length magic) in
          if tag <> magic then load_error path "bad file magic";
          (Marshal.from_channel ic : int * float)
        with
        | End_of_file -> load_error path "truncated file"
        | Failure msg -> load_error path msg)
  in
  let net =
    (* the companion network file is part of the same on-disk artifact,
       so its failures surface as this module's Load_error too *)
    try SiaUNet.load ?expect (path ^ ".net")
    with SiaUNet.Load_error msg -> raise (Load_error msg)
  in
  (* Cross-check the pair of files: a swapped-in network file that
     Marshal-decodes fine must still agree with the data pipeline and
     the stored network resolution, or [predict] would blow up inside
     a conv long after loading "succeeded". *)
  match mismatch net ~input_hw ~label_scale with
  | Some cause -> load_error path cause
  | None -> { net; input_hw; label_scale }
