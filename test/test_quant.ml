(* Quantized int8 inference: kernel property tests and the golden-parity
   harness against the float32 reference. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Pool = Dco3d_parallel.Pool

let with_exact_jobs n f =
  let saved = Pool.jobs () in
  Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs ~exact:true saved) f

(* Run a check under jobs=1 and jobs=4 — int8 results must be
   bit-identical at any job count. *)
let on_both_schedules check =
  check "jobs=1";
  with_exact_jobs 4 (fun () -> check "jobs=4")

let check_bits name expected got =
  Alcotest.(check int64)
    name
    (Int64.bits_of_float expected)
    (Int64.bits_of_float got)

let check_tensor_bits name a b =
  Alcotest.(check (array int))
    (name ^ ": shape") (T.shape a) (T.shape b);
  for i = 0 to T.numel a - 1 do
    check_bits
      (Printf.sprintf "%s [%d]" name i)
      (T.get_flat a i) (T.get_flat b i)
  done

(* ------------------------------------------------------------------ *)
(* quantize -> dequantize round trip                                    *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_bounds () =
  let rng = Rng.create 11 in
  let w = T.rand_uniform rng ~lo:(-3.) ~hi:3. [| 5; 3; 3; 3 |] in
  let qw = T.quantize_weight w in
  let scales = T.qweight_scales qw in
  let dq = T.dequantize_weight qw in
  Alcotest.(check (array int)) "shape" (T.shape w) (T.shape dq);
  let kdim = 3 * 3 * 3 in
  for o = 0 to 4 do
    (* per-channel scale is max|W[o]| / 127 *)
    let m = ref 0. in
    for p = 0 to kdim - 1 do
      m := Float.max !m (Float.abs (T.get_flat w ((o * kdim) + p)))
    done;
    Alcotest.(check (float 1e-12)) "scale" (!m /. 127.) scales.(o);
    (* round-trip error is bounded by half a quantization step *)
    for p = 0 to kdim - 1 do
      let v = T.get_flat w ((o * kdim) + p) in
      let r = T.get_flat dq ((o * kdim) + p) in
      if Float.abs (v -. r) > (scales.(o) /. 2.) +. 1e-12 then
        Alcotest.failf "channel %d elt %d: %g -> %g exceeds half-step %g" o p v
          r (scales.(o) /. 2.)
    done
  done

let test_roundtrip_zero_preserved () =
  let rng = Rng.create 12 in
  let w = T.rand_uniform rng ~lo:(-1.) ~hi:1. [| 2; 2; 3; 3 |] in
  (* plant exact zeros *)
  T.set_flat w 0 0.;
  T.set_flat w 17 0.;
  let dq = T.dequantize_weight (T.quantize_weight w) in
  check_bits "zero 0" 0. (T.get_flat dq 0);
  check_bits "zero 17" 0. (T.get_flat dq 17)

let test_roundtrip_symmetric () =
  let rng = Rng.create 13 in
  let w = T.rand_uniform rng ~lo:(-2.) ~hi:2. [| 3; 4; 1; 1 |] in
  let neg = T.neg w in
  let dq = T.dequantize_weight (T.quantize_weight w) in
  let dqn = T.dequantize_weight (T.quantize_weight neg) in
  (* symmetric scheme: quantizing -w negates exactly (no -128 asymmetry);
     zero codes compare by value so +0. vs -0. is not a mismatch *)
  for i = 0 to T.numel w - 1 do
    let v = T.get_flat dq i and nv = T.get_flat dqn i in
    if v = 0. then Alcotest.(check bool) (Printf.sprintf "negate [%d]" i) true (nv = 0.)
    else check_bits (Printf.sprintf "negate [%d]" i) (-.v) nv
  done;
  (* every code stays inside the symmetric range *)
  let b = T.qweight_bytes (T.quantize_weight w) in
  Bytes.iter
    (fun c ->
      if Char.code c < 1 then Alcotest.fail "byte -128 must never be produced")
    b

let test_qweight_of_parts_rejects () =
  let rng = Rng.create 14 in
  let qw = T.quantize_weight (T.rand_uniform rng ~lo:(-1.) ~hi:1. [| 2; 3; 3; 3 |]) in
  let shape = T.qweight_shape qw in
  let data = T.qweight_bytes qw in
  let scales = T.qweight_scales qw in
  let rebuilt = T.qweight_of_parts ~shape ~data ~scales in
  check_tensor_bits "rebuild" (T.dequantize_weight qw)
    (T.dequantize_weight rebuilt);
  (try
     ignore (T.qweight_of_parts ~shape ~data:(Bytes.sub data 0 3) ~scales);
     Alcotest.fail "short data accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (T.qweight_of_parts ~shape ~data ~scales:[| 1. |]);
     Alcotest.fail "short scales accepted"
   with Invalid_argument _ -> ());
  (try
     let bad = Bytes.copy data in
     Bytes.set bad 0 '\000';
     ignore (T.qweight_of_parts ~shape ~data:bad ~scales);
     Alcotest.fail "byte 0 accepted"
   with Invalid_argument _ -> ());
  try
    let bad = Array.copy scales in
    bad.(0) <- -1.;
    ignore (T.qweight_of_parts ~shape ~data ~scales:bad);
    Alcotest.fail "negative scale accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* int8 GEMM vs reference loop (eps = 0 on the integer accumulator)    *)
(* ------------------------------------------------------------------ *)

let rand_bytes rng len =
  Bytes.init len (fun _ -> Char.chr (1 + Rng.int rng 255))

let gemm_ref ~m ~k ~n a b =
  let out = Array.make (m * n) 0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0 in
      for p = 0 to k - 1 do
        let qa = Char.code (Bytes.get a ((i * k) + p)) - 128 in
        let qb = Char.code (Bytes.get b ((p * n) + j)) - 128 in
        acc := !acc + (qa * qb)
      done;
      out.((i * n) + j) <- !acc
    done
  done;
  out

let test_gemm_i8_exact () =
  let rng = Rng.create 21 in
  (* sizes exercise: lane tails (n mod 3), spill blocks (k > 15), odd
     row counts (the paired-row kernel's tail row) *)
  List.iter
    (fun (m, k, n) ->
      let a = rand_bytes rng (m * k) in
      let b = rand_bytes rng (k * n) in
      let expected = gemm_ref ~m ~k ~n a b in
      on_both_schedules (fun tag ->
          let got = T.gemm_i8_exact ~m ~k ~n a b in
          Alcotest.(check (array int))
            (Printf.sprintf "%s m=%d k=%d n=%d" tag m k n)
            expected got))
    [ (1, 1, 1); (2, 15, 3); (3, 16, 4); (5, 31, 7); (4, 64, 6); (7, 130, 10) ]

let test_gemm_i8_extremes () =
  (* all-max magnitudes: the lane-overflow worst case *)
  let m = 3 and k = 257 and n = 5 in
  let a = Bytes.make (m * k) '\255' in
  let b = Bytes.make (k * n) '\001' in
  let expected = gemm_ref ~m ~k ~n a b in
  let got = T.gemm_i8_exact ~m ~k ~n a b in
  Alcotest.(check (array int)) "extremes" expected got

(* ------------------------------------------------------------------ *)
(* conv2d_batch_i8 vs fake-quantized reference                         *)
(* ------------------------------------------------------------------ *)

(* Reference: quantize the input with the engine's per-sample affine
   scheme (scale spanning [min(x,0) .. max(x,0)], zero-point z) and the
   weights per channel, run a direct integer conv loop over (qa - z),
   requantize with the same expression tree. *)
let conv_i8_ref ~stride ~pad x qw bias =
  let shape = T.shape x in
  let n = shape.(0) and ci = shape.(1) and h = shape.(2) and w = shape.(3) in
  let wshape = T.qweight_shape qw in
  let co = wshape.(0) and kh = wshape.(2) and kw = wshape.(3) in
  let oh = ((h + (2 * pad) - kh) / stride) + 1 in
  let ow = ((w + (2 * pad) - kw) / stride) + 1 in
  let wb = T.qweight_bytes qw in
  let wscales = T.qweight_scales qw in
  let sample = ci * h * w in
  let out = Array.make (n * co * oh * ow) 0. in
  for b = 0 to n - 1 do
    let mn = ref 0. and mx = ref 0. in
    for i = 0 to sample - 1 do
      let v = T.get_flat x ((b * sample) + i) in
      if v < !mn then mn := v;
      if v > !mx then mx := v
    done;
    let range = !mx -. !mn in
    let xs = if range > 0. then range /. 254. else 1. in
    let z = -127 - int_of_float ((!mn /. xs) -. 0.5) in
    let inv = 1. /. xs in
    let qx =
      Array.init sample (fun i ->
          let q =
            z
            + int_of_float
                (Float.round (T.get_flat x ((b * sample) + i) *. inv))
          in
          if q > 127 then 127 else if q < -127 then -127 else q)
    in
    for o = 0 to co - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let acc = ref 0 in
          for c = 0 to ci - 1 do
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * stride) + ky - pad in
                let ix = (ox * stride) + kx - pad in
                if iy >= 0 && iy < h && ix >= 0 && ix < w then begin
                  let qa = qx.((((c * h) + iy) * w) + ix) in
                  let qb =
                    Char.code
                      (Bytes.get wb
                         ((o * ci * kh * kw) + (((c * kh) + ky) * kw) + kx))
                    - 128
                  in
                  acc := !acc + ((qa - z) * qb)
                end
              done
            done
          done;
          let v = float_of_int !acc *. (wscales.(o) *. xs) in
          let v =
            match bias with
            | None -> v
            | Some bt -> v +. T.get_flat bt o
          in
          out.((((((b * co) + o) * oh) + oy) * ow) + ox) <- v
        done
      done
    done
  done;
  T.make [| n; co; oh; ow |] out

let test_conv_i8_vs_ref () =
  let rng = Rng.create 31 in
  List.iter
    (fun (n, ci, h, w, co, ksize, stride, pad, biased) ->
      let x = T.rand_uniform rng ~lo:(-2.) ~hi:2. [| n; ci; h; w |] in
      let wt =
        T.rand_uniform rng ~lo:(-1.) ~hi:1. [| co; ci; ksize; ksize |]
      in
      let bias =
        if biased then Some (T.rand_uniform rng ~lo:(-0.5) ~hi:0.5 [| co |])
        else None
      in
      let qw = T.quantize_weight wt in
      let expected = conv_i8_ref ~stride ~pad x qw bias in
      on_both_schedules (fun tag ->
          let got = T.conv2d_batch_i8 ~stride ~pad x ~qweight:qw ~bias in
          check_tensor_bits
            (Printf.sprintf "%s n=%d ci=%d h=%d co=%d k=%d s=%d p=%d" tag n ci
               h co ksize stride pad)
            expected got))
    [
      (1, 1, 5, 5, 1, 3, 1, 1, false);
      (2, 3, 8, 8, 4, 3, 1, 1, true);
      (3, 2, 7, 9, 5, 3, 1, 0, true);
      (2, 4, 6, 6, 3, 1, 1, 0, true);
      (1, 2, 9, 9, 2, 3, 2, 1, true);
    ]

let test_conv_i8_batch_independence () =
  (* element [b] of a batched call is bit-identical to a singleton call:
     the per-sample activation scales decouple batchmates, which is what
     lets the serve cache reuse replies across batch compositions *)
  let rng = Rng.create 32 in
  let samples =
    Array.init 5 (fun _ -> T.rand_uniform rng ~lo:(-3.) ~hi:3. [| 1; 3; 8; 8 |])
  in
  let wt = T.rand_uniform rng ~lo:(-1.) ~hi:1. [| 4; 3; 3; 3 |] in
  let bias = Some (T.rand_uniform rng ~lo:(-0.2) ~hi:0.2 [| 4 |]) in
  let qw = T.quantize_weight wt in
  let batch =
    T.stack (Array.map (fun s -> T.reshape (T.copy s) [| 3; 8; 8 |]) samples)
  in
  on_both_schedules (fun tag ->
      let whole = T.unstack (T.conv2d_batch_i8 ~pad:1 batch ~qweight:qw ~bias) in
      Array.iteri
        (fun i s ->
          let solo =
            T.unstack (T.conv2d_batch_i8 ~pad:1 s ~qweight:qw ~bias)
          in
          check_tensor_bits
            (Printf.sprintf "%s sample %d" tag i)
            solo.(0) whole.(i))
        samples)

(* Reference for the transposed conv: integer scatter loop over the
   quantized transposed weight (read back through the flipped layout
   quantize_weight_transposed stores), requantized with the engine's
   expression tree. *)
let convT_i8_ref ~stride ~pad x w qw bias =
  let shape = T.shape x in
  let n = shape.(0) and ci = shape.(1) and h = shape.(2) and wd = shape.(3) in
  let wshape = T.shape w in
  let co = wshape.(1) and kh = wshape.(2) and kw = wshape.(3) in
  let oh = ((h - 1) * stride) + kh - (2 * pad) in
  let ow = ((wd - 1) * stride) + kw - (2 * pad) in
  let wb = T.qweight_bytes qw in
  let wscales = T.qweight_scales qw in
  let kdim = ci * kh * kw in
  let sample = ci * h * wd in
  let out = Array.make (n * co * oh * ow) 0. in
  for b = 0 to n - 1 do
    let mn = ref 0. and mx = ref 0. in
    for i = 0 to sample - 1 do
      let v = T.get_flat x ((b * sample) + i) in
      if v < !mn then mn := v;
      if v > !mx then mx := v
    done;
    let range = !mx -. !mn in
    let xs = if range > 0. then range /. 254. else 1. in
    let z = -127 - int_of_float ((!mn /. xs) -. 0.5) in
    let inv = 1. /. xs in
    let qx =
      Array.init sample (fun i ->
          let q =
            z
            + int_of_float
                (Float.round (T.get_flat x ((b * sample) + i) *. inv))
          in
          if q > 127 then 127 else if q < -127 then -127 else q)
    in
    let acc = Array.make (co * oh * ow) 0 in
    for c = 0 to ci - 1 do
      for iy = 0 to h - 1 do
        for ix = 0 to wd - 1 do
          let qa = qx.((((c * h) + iy) * wd) + ix) in
          for o = 0 to co - 1 do
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let oy = (iy * stride) + ky - pad in
                let ox = (ix * stride) + kx - pad in
                if oy >= 0 && oy < oh && ox >= 0 && ox < ow then begin
                  (* stored layout is flipped: w[c][o][ky][kx] lives at
                     data[o][c][kh-1-ky][kw-1-kx] *)
                  let qb =
                    Char.code
                      (Bytes.get wb
                         ((o * kdim)
                         + (((c * kh) + (kh - 1 - ky)) * kw)
                         + (kw - 1 - kx)))
                    - 128
                  in
                  let oi = (((o * oh) + oy) * ow) + ox in
                  acc.(oi) <- acc.(oi) + ((qa - z) * qb)
                end
              done
            done
          done
        done
      done
    done;
    for o = 0 to co - 1 do
      for i = 0 to (oh * ow) - 1 do
        let v = float_of_int acc.(((o * oh) * ow) + i) *. (wscales.(o) *. xs) in
        let v =
          match bias with None -> v | Some bt -> v +. T.get_flat bt o
        in
        out.((((b * co) + o) * oh * ow) + i) <- v
      done
    done
  done;
  T.make [| n; co; oh; ow |] out

let test_convT_i8_vs_ref () =
  let rng = Rng.create 33 in
  List.iter
    (fun (n, ci, h, w, co, ksize, stride, pad, biased) ->
      let x = T.rand_uniform rng ~lo:(-2.) ~hi:2. [| n; ci; h; w |] in
      let wt =
        T.rand_uniform rng ~lo:(-1.) ~hi:1. [| ci; co; ksize; ksize |]
      in
      let bias =
        if biased then Some (T.rand_uniform rng ~lo:(-0.5) ~hi:0.5 [| co |])
        else None
      in
      let qw = T.quantize_weight_transposed wt in
      let expected = convT_i8_ref ~stride ~pad x wt qw bias in
      on_both_schedules (fun tag ->
          let got =
            T.conv2d_transpose_batch_i8 ~stride ~pad x ~qweight:qw ~bias
          in
          check_tensor_bits
            (Printf.sprintf "%s n=%d ci=%d h=%d co=%d k=%d s=%d p=%d" tag n ci
               h co ksize stride pad)
            expected got))
    [
      (1, 1, 4, 4, 1, 2, 2, 0, false);
      (2, 3, 5, 5, 2, 2, 2, 0, true);
      (1, 2, 6, 5, 3, 3, 1, 1, true);
      (2, 2, 4, 6, 2, 3, 2, 1, true);
    ]

let test_convT_i8_matches_f32_shape () =
  (* shape agreement with the float transposed conv across strides *)
  let rng = Rng.create 34 in
  List.iter
    (fun (stride, pad, ksize) ->
      let x = T.rand_uniform rng ~lo:(-1.) ~hi:1. [| 2; 3; 5; 7 |] in
      let wt = T.rand_uniform rng ~lo:(-1.) ~hi:1. [| 3; 4; ksize; ksize |] in
      let f = T.conv2d_transpose_batch ~stride ~pad x ~weight:wt ~bias:None in
      let q =
        T.conv2d_transpose_batch_i8 ~stride ~pad x
          ~qweight:(T.quantize_weight_transposed wt) ~bias:None
      in
      Alcotest.(check (array int))
        (Printf.sprintf "s=%d p=%d k=%d" stride pad ksize)
        (T.shape f) (T.shape q))
    [ (1, 0, 3); (2, 0, 2); (2, 1, 3); (3, 1, 4) ]

let test_conv_i8_act_fused () =
  (* fused activation equals activating the plain output *)
  let rng = Rng.create 35 in
  let x = T.rand_uniform rng ~lo:(-2.) ~hi:2. [| 2; 3; 6; 6 |] in
  let wt = T.rand_uniform rng ~lo:(-1.) ~hi:1. [| 4; 3; 3; 3 |] in
  let bias = Some (T.rand_uniform rng ~lo:(-0.5) ~hi:0.5 [| 4 |]) in
  let qw = T.quantize_weight wt in
  let plain = T.conv2d_batch_i8 ~pad:1 x ~qweight:qw ~bias in
  List.iter
    (fun (act, f) ->
      let fused = T.conv2d_batch_i8 ~pad:1 ~act x ~qweight:qw ~bias in
      for i = 0 to T.numel plain - 1 do
        let v = T.get_flat plain i in
        check_bits (Printf.sprintf "[%d]" i)
          (if v < 0. then f v else v)
          (T.get_flat fused i)
      done)
    [ (`Relu, fun v -> v *. 0.); (`Leaky 0.1, fun v -> v *. 0.1) ]

let test_conv_i8_zero_input () =
  let wt = T.make [| 2; 1; 1; 1 |] [| 0.5; -0.25 |] in
  let bias = Some (T.make [| 2 |] [| 1.5; -2.5 |]) in
  let x = T.zeros [| 1; 1; 3; 3 |] in
  let y = T.conv2d_batch_i8 x ~qweight:(T.quantize_weight wt) ~bias in
  for i = 0 to 8 do
    check_bits "ch0 = bias0" 1.5 (T.get_flat y i);
    check_bits "ch1 = bias1" (-2.5) (T.get_flat y (9 + i))
  done

(* ------------------------------------------------------------------ *)
(* Golden parity: the full quantized predictor vs its f32 reference    *)
(* ------------------------------------------------------------------ *)

module SiaUNet = Dco3d_nn.Siamese_unet
module Predictor = Dco3d_core.Predictor
module Parity = Dco3d_core.Parity
module Fm = Dco3d_congestion.Feature_maps

let mk_predictor ?(seed = 41) ?(input_hw = 16) () =
  let rng = Rng.create seed in
  let net =
    SiaUNet.create rng { SiaUNet.default_config with base_channels = 4 }
  in
  { Predictor.net; input_hw; label_scale = 1.0 }

let mk_inputs ?(seed = 42) ?(n = 3) ~hw () =
  let rng = Rng.create seed in
  let one () = T.rand_uniform rng [| Fm.n_channels; hw; hw |] in
  Array.init n (fun _ -> (one (), one ()))

let test_predict_parity () =
  let p = mk_predictor () in
  let inputs = mk_inputs ~hw:16 () in
  let f32 = Predictor.predict_batch ~numeric:`F32 p inputs in
  let i8 = Predictor.predict_batch ~numeric:`I8 p inputs in
  let report = Parity.compare ~f32 ~i8 in
  (match Parity.check report with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "parity gate: %s" msg);
  Alcotest.(check bool)
    "divergence positive (paths actually differ)" true
    (report.Parity.max_abs > 0.)

let test_predict_i8_schedule_invariant () =
  let p = mk_predictor () in
  let inputs = mk_inputs ~hw:16 () in
  let golden = Predictor.predict_batch ~numeric:`I8 p inputs in
  with_exact_jobs 4 (fun () ->
      let got = Predictor.predict_batch ~numeric:`I8 p inputs in
      Array.iteri
        (fun k (g0, g1) ->
          let h0, h1 = got.(k) in
          check_tensor_bits (Printf.sprintf "sample %d die 0" k) g0 h0;
          check_tensor_bits (Printf.sprintf "sample %d die 1" k) g1 h1)
        golden)

let test_predict_i8_batch_matches_singletons () =
  (* ragged coalescing in serve relies on batch position not mattering *)
  let p = mk_predictor () in
  let inputs = mk_inputs ~n:5 ~hw:16 () in
  let batched = Predictor.predict_batch ~numeric:`I8 p inputs in
  Array.iteri
    (fun k (f0, f1) ->
      let s0, s1 = Predictor.predict ~numeric:`I8 p f0 f1 in
      let b0, b1 = batched.(k) in
      check_tensor_bits (Printf.sprintf "sample %d die 0" k) s0 b0;
      check_tensor_bits (Printf.sprintf "sample %d die 1" k) s1 b1)
    inputs

(* The serve cache keys, pinned: the f32 one covers every weight bit
   and the seeded draw order, the i8 one also the per-layer program
   order and the quantization policy. *)
let test_golden_fingerprints () =
  on_both_schedules (fun sched ->
      let net =
        SiaUNet.create (Rng.create 0)
          { SiaUNet.default_config with base_channels = 8 }
      in
      let p = { Predictor.net; input_hw = 32; label_scale = 1.0 } in
      Alcotest.(check string)
        (sched ^ ": f32 fingerprint") "1e06471a6b29c84e0fd15c14e5a7c781"
        (Predictor.fingerprint ~numeric:`F32 p);
      Alcotest.(check string)
        (sched ^ ": i8 fingerprint") "18c82b07ec05fbdec0bc1319db5d7313"
        (Predictor.fingerprint ~numeric:`I8 p))

(* ------------------------------------------------------------------ *)
(* Compiled programs vs the tape, per layer constructor                *)
(* ------------------------------------------------------------------ *)

module Layer = Dco3d_nn.Layer
module Quant = Dco3d_nn.Quant
module V = Dco3d_autodiff.Value

(* The parts of Layer.t the UNet does not exercise: strided convs, a
   biased strided transposed conv and every activation kind. *)
let test_f32_program_matches_tape () =
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
  let prog = Quant.of_layer ~quantize_conv:(fun _ -> false) l in
  Alcotest.(check bool)
    "no int8 unit" true
    (List.for_all
       (function Quant.Q_conv _ -> false | _ -> true)
       prog.Quant.units);
  on_both_schedules (fun sched ->
      let batched = T.unstack (Quant.forward_batch prog (T.stack samples)) in
      Array.iteri
        (fun k x ->
          check_tensor_bits
            (Printf.sprintf "%s sample %d" sched k)
            (V.data (Layer.forward l (V.const x)))
            batched.(k))
        samples)

let test_of_layer_rejects_linear () =
  let l = Layer.linear (Rng.create 62) ~in_dim:4 ~out_dim:2 () in
  match Quant.of_layer l with
  | _ -> Alcotest.fail "a linear layer compiled"
  | exception Invalid_argument _ -> ()

let with_tmp f =
  let path = Filename.temp_file "dco3d_qtest" ".qpred" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".qnet" ])
    (fun () -> f path)

let test_quantized_save_load_roundtrip () =
  let p = mk_predictor () in
  let inputs = mk_inputs ~n:2 ~hw:16 () in
  let golden = Predictor.predict_batch ~numeric:`I8 p inputs in
  let fp = Predictor.fingerprint ~numeric:`I8 p in
  with_tmp (fun path ->
      Predictor.save_quantized p path;
      let q = Predictor.load_quantized path in
      Alcotest.(check string)
        "fingerprint survives the round trip" fp
        (Predictor.fingerprint ~numeric:`I8 q);
      let got = Predictor.predict_batch ~numeric:`I8 q inputs in
      Array.iteri
        (fun k (g0, g1) ->
          let h0, h1 = got.(k) in
          check_tensor_bits (Printf.sprintf "sample %d die 0" k) g0 h0;
          check_tensor_bits (Printf.sprintf "sample %d die 1" k) g1 h1)
        golden)

let test_quantized_load_rejects_corrupt () =
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "not a quantized predictor at all";
      close_out oc;
      match Predictor.load_quantized path with
      | _ -> Alcotest.fail "corrupt file loaded"
      | exception Predictor.Load_error _ -> ())

let suites =
  [
    ( "quant",
      [
        Alcotest.test_case "roundtrip scale+bound" `Quick test_roundtrip_bounds;
        Alcotest.test_case "roundtrip zero preserved" `Quick
          test_roundtrip_zero_preserved;
        Alcotest.test_case "roundtrip symmetric" `Quick test_roundtrip_symmetric;
        Alcotest.test_case "qweight_of_parts validation" `Quick
          test_qweight_of_parts_rejects;
        Alcotest.test_case "gemm_i8 vs reference (eps=0)" `Quick
          test_gemm_i8_exact;
        Alcotest.test_case "gemm_i8 extremes" `Quick test_gemm_i8_extremes;
        Alcotest.test_case "conv_i8 vs reference" `Quick test_conv_i8_vs_ref;
        Alcotest.test_case "conv_i8 batch independence" `Quick
          test_conv_i8_batch_independence;
        Alcotest.test_case "convT_i8 vs reference" `Quick test_convT_i8_vs_ref;
        Alcotest.test_case "convT_i8 output shapes" `Quick
          test_convT_i8_matches_f32_shape;
        Alcotest.test_case "conv_i8 fused activation" `Quick
          test_conv_i8_act_fused;
        Alcotest.test_case "conv_i8 zero input" `Quick test_conv_i8_zero_input;
        Alcotest.test_case "golden parity gate" `Quick test_predict_parity;
        Alcotest.test_case "i8 predict schedule invariant" `Quick
          test_predict_i8_schedule_invariant;
        Alcotest.test_case "i8 batch matches singletons" `Quick
          test_predict_i8_batch_matches_singletons;
        Alcotest.test_case "golden model fingerprints" `Quick
          test_golden_fingerprints;
        Alcotest.test_case "f32 program = tape, every constructor" `Quick
          test_f32_program_matches_tape;
        Alcotest.test_case "of_layer rejects linear" `Quick
          test_of_layer_rejects_linear;
        Alcotest.test_case "quantized save/load round trip" `Quick
          test_quantized_save_load_roundtrip;
        Alcotest.test_case "quantized load rejects corrupt" `Quick
          test_quantized_load_rejects_corrupt;
      ] );
  ]
