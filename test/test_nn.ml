(* Tests for neural-network layers and the Siamese UNet predictor. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module V = Dco3d_autodiff.Value
module Opt = Dco3d_autodiff.Optimizer
module Layer = Dco3d_nn.Layer
module SiaUNet = Dco3d_nn.Siamese_unet
module Pool = Dco3d_parallel.Pool
module Obs = Dco3d_obs.Obs

let with_exact_jobs n f =
  let saved = Pool.jobs () in
  Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs ~exact:true saved) f

let check_tensor_bits name a b =
  Alcotest.(check (array int)) (name ^ ": shape") (T.shape a) (T.shape b);
  for i = 0 to T.numel a - 1 do
    Alcotest.(check int64)
      (Printf.sprintf "%s [%d]" name i)
      (Int64.bits_of_float (T.get_flat a i))
      (Int64.bits_of_float (T.get_flat b i))
  done

let test_conv_layer_shapes () =
  let rng = Rng.create 1 in
  let l = Layer.conv2d rng ~pad:1 ~in_channels:3 ~out_channels:5 ~ksize:3 () in
  let y = Layer.forward l (V.const (T.zeros [| 2; 3; 8; 8 |])) in
  Alcotest.(check (array int)) "conv shape" [| 2; 5; 8; 8 |] (V.shape y);
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
  let y = Layer.forward l (V.const (T.zeros [| 1; 1; 8; 8 |])) in
  Alcotest.(check (array int)) "seq shape" [| 1; 2; 4; 4 |] (V.shape y)

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
  let x = T.rand_uniform (Rng.create 6) [| 1; 1; 4; 4 |] in
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

(* The parts of Layer.t the UNet does not exercise: strided convs, a
   biased strided transposed conv and every activation kind.  On both
   schedules, one forward over a stacked batch of three must carry each
   sample's bits from a forward of that sample alone, and its weight and
   bias gradients must be the per-sample gradients added in sample
   order. *)
let test_stacked_batch_matches_samples () =
  let rng = Rng.create 61 in
  let l =
    Layer.seq
      [
        Layer.conv2d rng ~stride:2 ~pad:1 ~in_channels:2 ~out_channels:4
          ~ksize:3 ();
        Layer.relu;
        Layer.conv2d_transpose rng ~stride:2 ~in_channels:4 ~out_channels:3
          ~ksize:2 ();
        Layer.sigmoid;
        Layer.conv2d rng ~pad:1 ~in_channels:3 ~out_channels:3 ~ksize:3 ();
        Layer.tanh_;
        Layer.maxpool2;
        Layer.conv2d rng ~in_channels:3 ~out_channels:2 ~ksize:1 ();
        Layer.leaky_relu 0.1;
      ]
  in
  (* non-zero biases, so the bias epilogues are checked too *)
  List.iter
    (fun p ->
      let d = V.data p in
      for i = 0 to T.numel d - 1 do
        T.set_flat d i (Rng.float rng 2. -. 1.)
      done)
    (Layer.params l);
  let samples = Array.init 3 (fun _ -> T.rand_uniform rng [| 2; 12; 12 |]) in
  let cotangents = Array.init 3 (fun _ -> T.randn rng [| 2; 6; 6 |]) in
  (* forward over the stacked samples, then the parameter gradients of
     <y, cotangents> *)
  let run xs cots =
    List.iter V.zero_grad (Layer.params l);
    let y = Layer.forward l (V.const (T.stack xs)) in
    V.backward (V.dot y (V.const (T.stack cots)));
    (V.data y, List.map V.grad (Layer.params l))
  in
  List.iter
    (fun jobs ->
      with_exact_jobs jobs (fun () ->
          let y, grads = run samples cotangents in
          let per = Array.map2 (fun x c -> run [| x |] [| c |]) samples cotangents in
          Array.iteri
            (fun k (yk, _) ->
              check_tensor_bits
                (Printf.sprintf "jobs=%d sample %d" jobs k)
                yk
                (T.stack [| (T.unstack y).(k) |]))
            per;
          List.iteri
            (fun i g ->
              let gk k = List.nth (snd per.(k)) i in
              check_tensor_bits
                (Printf.sprintf "jobs=%d param %d gradient" jobs i)
                (T.add (T.add (gk 0) (gk 1)) (gk 2))
                g)
            grads))
    [ 1; 4 ]

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

(* The pair runs as one batch, so each of the 15 convolutions of a
   depth-2 net computes one weight gradient per full pass, and one input
   gradient and no weight gradient per Algorithm-2 pass
   ([~wrt:[f0; f1]]). *)
let test_unet_conv_grads_per_pass () =
  let net = SiaUNet.create (Rng.create 31) small_cfg in
  let f0 = T.rand_uniform (Rng.create 32) [| 3; 8; 8 |] in
  let f1 = T.rand_uniform (Rng.create 33) [| 3; 8; 8 |] in
  let loss (c0, c1) = V.add (V.sum (V.sqr c0)) (V.sum (V.sqr c1)) in
  let counts f =
    let was = Obs.enabled () in
    Obs.enable ();
    Fun.protect
      ~finally:(fun () -> if not was then Obs.disable ())
      (fun () ->
        let dx () = Obs.counter_value "autodiff/conv_input_grads"
        and dw () = Obs.counter_value "autodiff/conv_weight_grads" in
        let x0 = dx () and w0 = dw () in
        f ();
        (dx () - x0, dw () - w0))
  in
  let _, weight_grads =
    counts (fun () ->
        V.backward (loss (SiaUNet.forward net (V.const f0) (V.const f1))))
  in
  Alcotest.(check int) "weight gradients per full pass" 15 weight_grads;
  let p0 = V.param f0 and p1 = V.param f1 in
  let input_grads, weight_grads =
    counts (fun () -> V.backward ~wrt:[ p0; p1 ] (loss (SiaUNet.forward net p0 p1)))
  in
  Alcotest.(check int) "input gradients per ~wrt:[f0; f1] pass" 15 input_grads;
  Alcotest.(check int) "weight gradients per ~wrt:[f0; f1] pass" 0 weight_grads

(* Inference runs the tape's executor over constant views of the same
   weights: the same bits as the tape forward, and an optimizer step
   on the parameters is visible to the next prediction. *)
let test_unet_predict_is_forward () =
  let net = SiaUNet.create (Rng.create 34) small_cfg in
  let f0 = T.rand_uniform (Rng.create 35) [| 3; 8; 8 |] in
  let f1 = T.rand_uniform (Rng.create 36) [| 3; 8; 8 |] in
  let check what =
    let c0, c1 = SiaUNet.forward net (V.const f0) (V.const f1) in
    let p0, p1 = SiaUNet.predict net f0 f1 in
    check_tensor_bits (what ^ " die 0") (T.reshape (V.data c0) [| 8; 8 |]) p0;
    check_tensor_bits (what ^ " die 1") (T.reshape (V.data c1) [| 8; 8 |]) p1;
    p0
  in
  let before = check "fresh" in
  let opt = Opt.adam ~lr:0.01 (SiaUNet.params net) in
  let c0, _ = SiaUNet.forward net (V.const f0) (V.const f1) in
  V.backward (V.sum (V.sqr c0));
  Opt.step opt;
  let after = check "after a step" in
  Alcotest.(check bool) "the step changed the prediction" false
    (T.approx_equal ~eps:0. before after)

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
        Alcotest.test_case "stacked batch = samples, every constructor" `Quick
          test_stacked_batch_matches_samples;
      ] );
    ( "nn.siamese_unet",
      [
        Alcotest.test_case "output shapes" `Quick test_unet_shapes;
        Alcotest.test_case "depth 1" `Quick test_unet_depth1;
        Alcotest.test_case "rejects bad depth" `Quick test_unet_rejects_bad_depth;
        Alcotest.test_case "die-swap symmetry" `Quick test_unet_siamese_symmetry;
        Alcotest.test_case "communication layer mixes dies" `Quick test_unet_communication_matters;
        Alcotest.test_case "gradients reach inputs" `Quick test_unet_gradients_flow_to_inputs;
        Alcotest.test_case "one conv gradient per pass" `Quick
          test_unet_conv_grads_per_pass;
        Alcotest.test_case "predict = tape forward" `Quick
          test_unet_predict_is_forward;
        Alcotest.test_case "overfits one sample" `Slow test_unet_trains;
        Alcotest.test_case "save/load roundtrip" `Quick test_unet_save_load;
        Alcotest.test_case "load rejects garbage" `Quick test_unet_load_rejects_garbage;
        Alcotest.test_case "load rejects truncated" `Quick test_unet_load_truncated;
      ] );
  ]
