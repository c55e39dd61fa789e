(* Tests for neural-network layers and the Siamese UNet predictor. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module V = Dco3d_autodiff.Value
module Opt = Dco3d_autodiff.Optimizer
module Layer = Dco3d_nn.Layer
module SiaUNet = Dco3d_nn.Siamese_unet

let test_conv_layer_shapes () =
  let rng = Rng.create 1 in
  let l = Layer.conv2d rng ~pad:1 ~in_channels:3 ~out_channels:5 ~ksize:3 () in
  let y = Layer.forward l (V.const (T.zeros [| 3; 8; 8 |])) in
  Alcotest.(check (array int)) "conv shape" [| 5; 8; 8 |] (V.shape y);
  Alcotest.(check int) "param count" ((5 * 3 * 3 * 3) + 5) (Layer.num_params l)

let test_linear_layer () =
  let rng = Rng.create 2 in
  let l = Layer.linear rng ~in_dim:4 ~out_dim:2 () in
  let y = Layer.forward l (V.const (T.zeros [| 10; 4 |])) in
  Alcotest.(check (array int)) "linear shape" [| 10; 2 |] (V.shape y)

let test_seq_composition () =
  let rng = Rng.create 3 in
  let l =
    Layer.seq
      [
        Layer.conv2d rng ~pad:1 ~in_channels:1 ~out_channels:4 ~ksize:3 ();
        Layer.relu;
        Layer.maxpool2;
        Layer.conv2d rng ~pad:1 ~in_channels:4 ~out_channels:2 ~ksize:3 ();
      ]
  in
  let y = Layer.forward l (V.const (T.zeros [| 1; 8; 8 |])) in
  Alcotest.(check (array int)) "seq shape" [| 2; 4; 4 |] (V.shape y)

let test_layer_state_roundtrip () =
  let rng = Rng.create 4 in
  let l = Layer.conv2d rng ~in_channels:2 ~out_channels:2 ~ksize:1 () in
  let snap = Layer.state l in
  (* perturb, then restore *)
  List.iter
    (fun p ->
      let d = V.data p in
      for i = 0 to T.numel d - 1 do
        T.set_flat d i 99.
      done)
    (Layer.params l);
  Layer.load_state l snap;
  List.iter2
    (fun p s ->
      Alcotest.(check bool) "restored" true (T.approx_equal (V.data p) s))
    (Layer.params l) snap

let test_layer_trains () =
  (* A 1x1-conv network can learn y = 2x: check loss decreases. *)
  let rng = Rng.create 5 in
  let l = Layer.conv2d rng ~in_channels:1 ~out_channels:1 ~ksize:1 () in
  let opt = Opt.adam ~lr:0.05 (Layer.params l) in
  let x = T.rand_uniform (Rng.create 6) [| 1; 4; 4 |] in
  let target = T.scale 2. x in
  let loss_at it =
    let loss = V.mse (Layer.forward l (V.const x)) target in
    if it >= 0 then begin
      V.backward loss;
      Opt.step opt
    end;
    T.get_flat (V.data loss) 0
  in
  let first = loss_at (-1) in
  for it = 0 to 400 do
    ignore (loss_at it)
  done;
  let last = loss_at (-1) in
  Alcotest.(check bool) "loss decreased 20x" true (last < first /. 20.)

(* ------------------------------------------------------------------ *)
(* Siamese UNet                                                        *)
(* ------------------------------------------------------------------ *)

let small_cfg = { SiaUNet.in_channels = 3; base_channels = 4; depth = 2 }

let test_unet_shapes () =
  let net = SiaUNet.create (Rng.create 7) small_cfg in
  let f0 = T.rand_uniform (Rng.create 8) [| 3; 16; 16 |] in
  let f1 = T.rand_uniform (Rng.create 9) [| 3; 16; 16 |] in
  let c0, c1 = SiaUNet.predict net f0 f1 in
  Alcotest.(check (array int)) "c0 shape" [| 16; 16 |] (T.shape c0);
  Alcotest.(check (array int)) "c1 shape" [| 16; 16 |] (T.shape c1)

let test_unet_depth1 () =
  let net =
    SiaUNet.create (Rng.create 7)
      { SiaUNet.in_channels = 2; base_channels = 4; depth = 1 }
  in
  let f = T.rand_uniform (Rng.create 8) [| 2; 6; 6 |] in
  let c0, _ = SiaUNet.predict net f f in
  Alcotest.(check (array int)) "depth-1 shape" [| 6; 6 |] (T.shape c0)

let test_unet_rejects_bad_depth () =
  Alcotest.check_raises "depth 3 unsupported"
    (Invalid_argument "Siamese_unet.create: depth must be 1 or 2") (fun () ->
      ignore
        (SiaUNet.create (Rng.create 1)
           { SiaUNet.in_channels = 1; base_channels = 2; depth = 3 }))

let test_unet_siamese_symmetry () =
  (* Interchangeable dies: swapping the two input stacks swaps the two
     output maps exactly, because encoder/decoder weights are shared and
     the communication layer is the only cross-path.  This is the
     defining property of the paper's architecture (section III-C). *)
  let net = SiaUNet.create (Rng.create 10) small_cfg in
  let f0 = T.rand_uniform (Rng.create 11) [| 3; 8; 8 |] in
  let f1 = T.rand_uniform (Rng.create 12) [| 3; 8; 8 |] in
  let c0, c1 = SiaUNet.predict net f0 f1 in
  let c0', c1' = SiaUNet.predict net f1 f0 in
  Alcotest.(check bool) "swap symmetry (top)" true
    (T.approx_equal ~eps:1e-9 c0 c1');
  Alcotest.(check bool) "swap symmetry (bottom)" true
    (T.approx_equal ~eps:1e-9 c1 c0')

let test_unet_communication_matters () =
  (* Changing die 1's input must change die 0's prediction: the
     communication layer really exchanges information between dies. *)
  let net = SiaUNet.create (Rng.create 13) small_cfg in
  let f0 = T.rand_uniform (Rng.create 14) [| 3; 8; 8 |] in
  let f1 = T.rand_uniform (Rng.create 15) [| 3; 8; 8 |] in
  let f1' = T.scale 2. f1 in
  let c0_a, _ = SiaUNet.predict net f0 f1 in
  let c0_b, _ = SiaUNet.predict net f0 f1' in
  Alcotest.(check bool) "cross-die influence" false
    (T.approx_equal ~eps:1e-9 c0_a c0_b)

let test_unet_gradients_flow_to_inputs () =
  (* Algorithm 2 requires gradients through the frozen net into the
     feature maps. *)
  let net = SiaUNet.create (Rng.create 16) small_cfg in
  let f0 = V.param (T.rand_uniform (Rng.create 17) [| 3; 8; 8 |]) in
  let f1 = V.param (T.rand_uniform (Rng.create 18) [| 3; 8; 8 |]) in
  let c0, c1 = SiaUNet.forward net f0 f1 in
  let loss = V.add (V.sum (V.sqr c0)) (V.sum (V.sqr c1)) in
  V.backward loss;
  Alcotest.(check bool) "nonzero input grad (die 0)" true
    (T.frobenius (V.grad f0) > 0.);
  Alcotest.(check bool) "nonzero input grad (die 1)" true
    (T.frobenius (V.grad f1) > 0.)

let test_unet_trains () =
  (* Tiny overfit run: the predictor must fit one (features, label) pair;
     this is a miniature of Algorithm 1. *)
  let net = SiaUNet.create (Rng.create 19) small_cfg in
  let opt = Opt.adam ~lr:0.01 (SiaUNet.params net) in
  let f0 = T.rand_uniform (Rng.create 20) [| 3; 8; 8 |] in
  let f1 = T.rand_uniform (Rng.create 21) [| 3; 8; 8 |] in
  let t0 = T.rand_uniform (Rng.create 22) [| 1; 8; 8 |] in
  let t1 = T.rand_uniform (Rng.create 23) [| 1; 8; 8 |] in
  let run_epoch () =
    let c0, c1 = SiaUNet.forward net (V.const f0) (V.const f1) in
    let loss =
      V.scale 0.5 (V.add (V.rmse_frobenius c0 t0) (V.rmse_frobenius c1 t1))
    in
    let lv = T.get_flat (V.data loss) 0 in
    V.backward loss;
    Opt.step opt;
    lv
  in
  let first = run_epoch () in
  let last = ref first in
  for _ = 1 to 150 do
    last := run_epoch ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "loss decreased (%.4f -> %.4f)" first !last)
    true
    (!last < first /. 3.)

let test_unet_save_load () =
  let net = SiaUNet.create (Rng.create 24) small_cfg in
  let f0 = T.rand_uniform (Rng.create 25) [| 3; 8; 8 |] in
  let f1 = T.rand_uniform (Rng.create 26) [| 3; 8; 8 |] in
  let c0, _ = SiaUNet.predict net f0 f1 in
  let path = Filename.temp_file "dco3d_unet" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      SiaUNet.save net path;
      let net' = SiaUNet.load path in
      let c0', _ = SiaUNet.predict net' f0 f1 in
      Alcotest.(check bool) "same prediction after reload" true
        (T.approx_equal ~eps:1e-12 c0 c0');
      Alcotest.(check int) "same param count" (SiaUNet.num_params net)
        (SiaUNet.num_params net'))

let test_unet_load_rejects_garbage () =
  let path = Filename.temp_file "dco3d_unet" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOT-A-UNET-FILE-AT-ALL";
      close_out oc;
      (match SiaUNet.load path with
      | _ -> Alcotest.fail "expected Load_error"
      | exception SiaUNet.Load_error msg ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "names the file" true (contains msg path);
          Alcotest.(check bool) "names the cause" true
            (contains msg "bad file magic")))

let test_unet_load_truncated () =
  let path = Filename.temp_file "dco3d_unet" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      (* valid magic, no snapshot behind it *)
      output_string oc "DCO3D-SIAUNET-V1";
      close_out oc;
      match SiaUNet.load path with
      | _ -> Alcotest.fail "expected Load_error on truncated file"
      | exception SiaUNet.Load_error msg ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "names the file" true (contains msg path))

let suites =
  [
    ( "nn.layer",
      [
        Alcotest.test_case "conv shapes" `Quick test_conv_layer_shapes;
        Alcotest.test_case "linear shapes" `Quick test_linear_layer;
        Alcotest.test_case "seq composition" `Quick test_seq_composition;
        Alcotest.test_case "state roundtrip" `Quick test_layer_state_roundtrip;
        Alcotest.test_case "1x1 conv learns scaling" `Quick test_layer_trains;
      ] );
    ( "nn.siamese_unet",
      [
        Alcotest.test_case "output shapes" `Quick test_unet_shapes;
        Alcotest.test_case "depth 1" `Quick test_unet_depth1;
        Alcotest.test_case "rejects bad depth" `Quick test_unet_rejects_bad_depth;
        Alcotest.test_case "die-swap symmetry" `Quick test_unet_siamese_symmetry;
        Alcotest.test_case "communication layer mixes dies" `Quick test_unet_communication_matters;
        Alcotest.test_case "gradients reach inputs" `Quick test_unet_gradients_flow_to_inputs;
        Alcotest.test_case "overfits one sample" `Slow test_unet_trains;
        Alcotest.test_case "save/load roundtrip" `Quick test_unet_save_load;
        Alcotest.test_case "load rejects garbage" `Quick test_unet_load_rejects_garbage;
        Alcotest.test_case "load rejects truncated" `Quick test_unet_load_truncated;
      ] );
  ]
