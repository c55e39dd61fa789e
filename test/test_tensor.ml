(* Unit and property tests for the tensor substrate. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Linalg = Dco3d_tensor.Linalg

let check_float = Alcotest.(check (float 1e-9))

let tensor_testable =
  Alcotest.testable T.pp (fun a b -> T.approx_equal ~eps:1e-9 a b)

(* ------------------------------------------------------------------ *)
(* Basic construction and access                                       *)
(* ------------------------------------------------------------------ *)

let test_make_and_access () =
  let t = T.make [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  check_float "get [0;0]" 1. (T.get t [| 0; 0 |]);
  check_float "get [1;2]" 6. (T.get t [| 1; 2 |]);
  check_float "get2" 5. (T.get2 t 1 1);
  T.set t [| 0; 1 |] 9.;
  check_float "after set" 9. (T.get2 t 0 1);
  Alcotest.check Alcotest.int "numel" 6 (T.numel t);
  Alcotest.check Alcotest.int "rank" 2 (T.rank t)

let test_make_rejects_bad_length () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Tensor.make: shape implies 4 elements, got 3") (fun () ->
      ignore (T.make [| 2; 2 |] [| 1.; 2.; 3. |]))

let test_init_row_major () =
  let t = T.init [| 2; 2 |] (fun idx -> float_of_int ((10 * idx.(0)) + idx.(1))) in
  Alcotest.check tensor_testable "init order"
    (T.make [| 2; 2 |] [| 0.; 1.; 10.; 11. |])
    t

let test_get3 () =
  let t = T.init [| 2; 3; 4 |] (fun i -> float_of_int ((i.(0) * 100) + (i.(1) * 10) + i.(2))) in
  check_float "get3" 123. (T.get3 t 1 2 3);
  T.set3 t 0 1 2 77.;
  check_float "set3" 77. (T.get t [| 0; 1; 2 |])

let test_reshape_shares_data () =
  let t = T.zeros [| 2; 3 |] in
  let r = T.reshape t [| 6 |] in
  T.set_flat r 0 5.;
  check_float "shared" 5. (T.get2 t 0 0);
  Alcotest.check_raises "bad reshape"
    (Invalid_argument "Tensor.reshape: element count mismatch") (fun () ->
      ignore (T.reshape t [| 7 |]))

(* Regression: reshape aliases the data (by documented contract) but
   must not alias the caller's shape array, and reshape_copy must hand
   back fully owned storage. *)
let test_reshape_aliasing_contract () =
  let t = T.make [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  (* mutating the shape array after make/reshape cannot corrupt tensors *)
  let sh = [| 3; 2 |] in
  let r = T.reshape t sh in
  sh.(0) <- 999;
  Alcotest.(check (array int)) "reshape copies shape" [| 3; 2 |] (T.shape r);
  let sh2 = [| 6 |] in
  let m = T.make sh2 (Array.init 6 float_of_int) in
  sh2.(0) <- 999;
  Alcotest.(check (array int)) "make copies shape" [| 6 |] (T.shape m);
  (* reshape_copy: independent in both directions *)
  let c = T.reshape_copy t [| 6 |] in
  T.set_flat c 0 42.;
  check_float "copy write stays local" 1. (T.get2 t 0 0);
  T.set2 t 0 1 (-7.);
  check_float "source write stays local" 2. (T.get_flat c 1);
  Alcotest.check_raises "bad reshape_copy"
    (Invalid_argument "Tensor.reshape_copy: element count mismatch") (fun () ->
      ignore (T.reshape_copy t [| 4 |]))

let test_scalar () =
  let s = T.scalar 3.5 in
  Alcotest.check Alcotest.int "rank 0" 0 (T.rank s);
  check_float "value" 3.5 (T.get_flat s 0)

(* ------------------------------------------------------------------ *)
(* Elementwise and reductions                                          *)
(* ------------------------------------------------------------------ *)

let test_elementwise () =
  let a = T.of_array1 [| 1.; -2.; 3. |] in
  let b = T.of_array1 [| 4.; 5.; -6. |] in
  Alcotest.check tensor_testable "add" (T.of_array1 [| 5.; 3.; -3. |]) (T.add a b);
  Alcotest.check tensor_testable "sub" (T.of_array1 [| -3.; -7.; 9. |]) (T.sub a b);
  Alcotest.check tensor_testable "mul" (T.of_array1 [| 4.; -10.; -18. |]) (T.mul a b);
  Alcotest.check tensor_testable "relu" (T.of_array1 [| 1.; 0.; 3. |]) (T.relu a);
  Alcotest.check tensor_testable "neg" (T.of_array1 [| -1.; 2.; -3. |]) (T.neg a);
  Alcotest.check tensor_testable "scale" (T.of_array1 [| 2.; -4.; 6. |]) (T.scale 2. a);
  Alcotest.check tensor_testable "clip"
    (T.of_array1 [| 1.; -1.; 1.5 |])
    (T.clip ~lo:(-1.) ~hi:1.5 a)

let test_reductions () =
  let a = T.of_array1 [| 1.; -2.; 3.; 6. |] in
  check_float "sum" 8. (T.sum a);
  check_float "mean" 2. (T.mean a);
  check_float "max" 6. (T.max_elt a);
  check_float "min" (-2.) (T.min_elt a);
  check_float "dot" (1. +. 4. +. 9. +. 36.) (T.dot a a);
  check_float "frobenius" (sqrt 50.) (T.frobenius a)

let test_axpy () =
  let x = T.of_array1 [| 1.; 2. |] in
  let y = T.of_array1 [| 10.; 20. |] in
  T.axpy ~alpha:2. x y;
  Alcotest.check tensor_testable "axpy" (T.of_array1 [| 12.; 24. |]) y

(* ------------------------------------------------------------------ *)
(* Matmul                                                              *)
(* ------------------------------------------------------------------ *)

let test_matmul () =
  let a = T.of_array2 [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = T.of_array2 [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  Alcotest.check tensor_testable "matmul"
    (T.of_array2 [| [| 19.; 22. |]; [| 43.; 50. |] |])
    (T.matmul a b);
  Alcotest.check tensor_testable "transpose"
    (T.of_array2 [| [| 1.; 3. |]; [| 2.; 4. |] |])
    (T.transpose2 a);
  Alcotest.check tensor_testable "matvec"
    (T.of_array1 [| 5.; 11. |])
    (T.matvec a (T.of_array1 [| 1.; 2. |]))

let prop_matmul_assoc =
  QCheck.Test.make ~name:"matmul associativity (small random)" ~count:30
    QCheck.(triple (int_bound 4) (int_bound 4) (int_bound 4))
    (fun (m, k, n) ->
      let m = m + 1 and k = k + 1 and n = n + 1 in
      let rng = Rng.create ((m * 100) + (k * 10) + n) in
      let a = T.rand_uniform rng ~lo:(-1.) ~hi:1. [| m; k |] in
      let b = T.rand_uniform rng ~lo:(-1.) ~hi:1. [| k; n |] in
      let c = T.rand_uniform rng ~lo:(-1.) ~hi:1. [| n; 2 |] in
      T.approx_equal ~eps:1e-8
        (T.matmul (T.matmul a b) c)
        (T.matmul a (T.matmul b c)))

(* ------------------------------------------------------------------ *)
(* Convolution                                                         *)
(* ------------------------------------------------------------------ *)

let test_conv2d_identity () =
  (* 1x1 kernel of weight 1 is the identity. *)
  let rng = Rng.create 1 in
  let x = T.rand_uniform rng [| 1; 2; 4; 4 |] in
  let w = T.make [| 2; 2; 1; 1 |] [| 1.; 0.; 0.; 1. |] in
  let y = T.conv2d x ~weight:w ~bias:None in
  Alcotest.check tensor_testable "identity conv" x y

let test_conv2d_known () =
  (* 3x3 all-ones kernel on a 3x3 all-ones input with pad 1: each output
     counts the number of valid taps. *)
  let x = T.ones [| 1; 1; 3; 3 |] in
  let w = T.ones [| 1; 1; 3; 3 |] in
  let y = T.conv2d ~pad:1 x ~weight:w ~bias:None in
  Alcotest.check tensor_testable "padded sum conv"
    (T.make [| 1; 1; 3; 3 |] [| 4.; 6.; 4.; 6.; 9.; 6.; 4.; 6.; 4. |])
    y

let test_conv2d_stride_shape () =
  let x = T.zeros [| 2; 3; 8; 8 |] in
  let w = T.zeros [| 5; 3; 3; 3 |] in
  let y = T.conv2d ~stride:2 ~pad:1 x ~weight:w ~bias:None in
  Alcotest.(check (array int)) "strided shape" [| 2; 5; 4; 4 |] (T.shape y)

let test_conv2d_bias () =
  let x = T.zeros [| 1; 1; 2; 2 |] in
  let w = T.zeros [| 2; 1; 1; 1 |] in
  let b = T.of_array1 [| 1.5; -0.5 |] in
  let y = T.conv2d x ~weight:w ~bias:(Some b) in
  check_float "bias ch0" 1.5 (T.get y [| 0; 0; 0; 0 |]);
  check_float "bias ch1" (-0.5) (T.get y [| 0; 1; 1; 1 |])

(* Adjointness: <conv(x), y> = <x, conv_backward_input(y)> for any x, y.
   This is the defining property of a correct backward kernel. *)
let prop_conv_adjoint =
  QCheck.Test.make ~name:"conv2d input-backward is the adjoint" ~count:20
    QCheck.(pair (int_bound 1000) (int_bound 1))
    (fun (seed, s) ->
      let stride = s + 1 in
      let rng = Rng.create seed in
      let ci = 2 and co = 3 and h = 6 and w = 6 and k = 3 and pad = 1 in
      let x = T.randn rng [| 1; ci; h; w |] in
      let wt = T.randn rng [| co; ci; k; k |] in
      let y = T.conv2d ~stride ~pad x ~weight:wt ~bias:None in
      let gy = T.randn rng (T.shape y) in
      let gx =
        T.conv2d_backward_input ~stride ~pad ~input_shape:[| 1; ci; h; w |]
          ~weight:wt gy
      in
      abs_float (T.dot y gy -. T.dot x gx) < 1e-8)

let prop_conv_weight_grad =
  QCheck.Test.make ~name:"conv2d weight-backward matches finite differences"
    ~count:10 (QCheck.int_bound 1000) (fun seed ->
      let rng = Rng.create seed in
      let ci = 1 and co = 2 and h = 5 and w = 5 and k = 3 in
      let x = T.randn rng [| 1; ci; h; w |] in
      let wt = T.randn rng [| co; ci; k; k |] in
      let loss wt = T.sum (T.conv2d ~pad:1 x ~weight:wt ~bias:None) in
      let gy = T.ones [| 1; co; h; w |] in
      let gw =
        T.conv2d_backward_weight ~pad:1 ~input:x ~weight_shape:(T.shape wt) gy
      in
      let eps = 1e-5 in
      let idx = Rng.int rng (T.numel wt) in
      let wplus = T.copy wt and wminus = T.copy wt in
      T.set_flat wplus idx (T.get_flat wt idx +. eps);
      T.set_flat wminus idx (T.get_flat wt idx -. eps);
      let fd = (loss wplus -. loss wminus) /. (2. *. eps) in
      abs_float (fd -. T.get_flat gw idx) < 1e-4)

let test_conv_transpose_shape () =
  let x = T.zeros [| 1; 4; 5; 5 |] in
  let w = T.zeros [| 4; 2; 2; 2 |] in
  let y = T.conv2d_transpose ~stride:2 x ~weight:w ~bias:None in
  Alcotest.(check (array int)) "transpose shape" [| 1; 2; 10; 10 |] (T.shape y)

let prop_conv_transpose_adjoint =
  (* conv2d_transpose is the adjoint of a matching conv2d:
     <convT(x), y> = <x, conv(y)> when the kernels correspond. *)
  QCheck.Test.make ~name:"conv2d_transpose is adjoint of conv2d" ~count:20
    (QCheck.int_bound 1000) (fun seed ->
      let rng = Rng.create seed in
      let ci = 2 and co = 3 and h = 4 and w = 4 and k = 2 and stride = 2 in
      (* weight for transpose: [ci; co; kh; kw] *)
      let wt = T.randn rng [| ci; co; k; k |] in
      let x = T.randn rng [| 1; ci; h; w |] in
      let y = T.conv2d_transpose ~stride x ~weight:wt ~bias:None in
      let gy = T.randn rng (T.shape y) in
      (* adjoint direction: conv2d with the same kernel viewed as
         [cout = ci; cin = co]. *)
      let gx = T.conv2d ~stride gy ~weight:wt ~bias:None in
      abs_float (T.dot y gy -. T.dot x gx) < 1e-8)

(* ------------------------------------------------------------------ *)
(* Pooling, resize                                                     *)
(* ------------------------------------------------------------------ *)

let test_maxpool () =
  let x = T.make [| 1; 1; 2; 4 |] [| 1.; 5.; 2.; 0.; 3.; 4.; 1.; 7. |] in
  let y, arg = T.maxpool2 x in
  Alcotest.check tensor_testable "maxpool" (T.make [| 1; 1; 1; 2 |] [| 5.; 7. |]) y;
  let gin =
    T.maxpool2_backward ~input_shape:[| 1; 1; 2; 4 |] arg (T.ones [| 1; 1; 1; 2 |])
  in
  Alcotest.check tensor_testable "maxpool backward"
    (T.make [| 1; 1; 2; 4 |] [| 0.; 1.; 0.; 0.; 0.; 0.; 0.; 1. |])
    gin

let test_resize_nearest_roundtrip () =
  (* Paper section III-B3: nearest-neighbour resize preserves magnitudes
     and recovers the original map after upscale-then-downscale. *)
  let rng = Rng.create 42 in
  let m = T.rand_uniform rng [| 6; 6 |] in
  let up = T.resize_nearest m 12 12 in
  let back = T.resize_nearest up 6 6 in
  Alcotest.check tensor_testable "resize roundtrip" m back;
  check_float "magnitude preserved" (T.max_elt m) (T.max_elt up)

let prop_resize_preserves_range =
  QCheck.Test.make ~name:"resize_nearest never invents values" ~count:50
    (QCheck.int_bound 10_000) (fun seed ->
      let rng = Rng.create seed in
      let h = 3 + Rng.int rng 10 and w = 3 + Rng.int rng 10 in
      let m = T.rand_uniform rng [| h; w |] in
      let r = T.resize_nearest m (2 + Rng.int rng 20) (2 + Rng.int rng 20) in
      T.max_elt r <= T.max_elt m +. 1e-12
      && T.min_elt r >= T.min_elt m -. 1e-12)

(* ------------------------------------------------------------------ *)
(* Channels, orientation transforms                                    *)
(* ------------------------------------------------------------------ *)

let test_concat_slice_channels () =
  let a = T.full [| 1; 2; 2 |] 1. in
  let b = T.full [| 2; 2; 2 |] 2. in
  let c = T.concat_channels [ a; b ] in
  Alcotest.(check (array int)) "concat shape" [| 3; 2; 2 |] (T.shape c);
  Alcotest.check tensor_testable "slice" b (T.slice_channels c 1 2);
  Alcotest.check tensor_testable "channel"
    (T.full [| 2; 2 |] 1.)
    (T.channel c 0);
  (* rank 4: each sample's channels concatenate, and slice back *)
  let ab = T.stack [| a; T.full [| 1; 2; 2 |] 4. |] in
  let bb = T.stack [| b; T.full [| 2; 2; 2 |] 5. |] in
  let cb = T.concat_channels [ ab; bb ] in
  Alcotest.(check (array int)) "batched concat shape" [| 2; 3; 2; 2 |]
    (T.shape cb);
  Alcotest.check tensor_testable "sample 1 of the batched concat"
    (T.concat_channels [ T.full [| 1; 2; 2 |] 4.; T.full [| 2; 2; 2 |] 5. ])
    (T.unstack cb).(1);
  Alcotest.check tensor_testable "batched slice" bb (T.slice_channels cb 1 2)

let test_concat_rank2_promotion () =
  let a = T.full [| 2; 2 |] 3. in
  let c = T.concat_channels [ a; a ] in
  Alcotest.(check (array int)) "promoted shape" [| 2; 2; 2 |] (T.shape c)

let test_rot90_cycle () =
  let rng = Rng.create 7 in
  let m = T.rand_uniform rng [| 4; 6 |] in
  let r4 = T.rot90 (T.rot90 (T.rot90 (T.rot90 m))) in
  Alcotest.check tensor_testable "rot90^4 = id" m r4;
  Alcotest.(check (array int)) "rot90 shape" [| 6; 4 |] (T.shape (T.rot90 m))

let test_flips_involutive () =
  let rng = Rng.create 8 in
  let m = T.rand_uniform rng [| 3; 5 |] in
  Alcotest.check tensor_testable "flip_h^2 = id" m (T.flip_h (T.flip_h m));
  let c = T.rand_uniform rng [| 2; 3; 5 |] in
  Alcotest.check tensor_testable "rank3 flip_h^2 = id" c (T.flip_h (T.flip_h c))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 17 and b = Rng.create 17 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.uniform a) (Rng.uniform b)
  done

let test_rng_split_independence () =
  let a = Rng.create 17 in
  let c = Rng.split a in
  (* The split stream must differ from the parent's continuation. *)
  let xs = Array.init 10 (fun _ -> Rng.uniform a) in
  let ys = Array.init 10 (fun _ -> Rng.uniform c) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_uniform_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.range rng 2. 5. in
    Alcotest.(check bool) "in range" true (v >= 2. && v < 5.)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 4 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
    /. float_of_int n
  in
  Alcotest.(check bool) "mean ~ 0" true (abs_float mean < 0.05);
  Alcotest.(check bool) "var ~ 1" true (abs_float (var -. 1.) < 0.05)

(* Pins the gaussian stream layout (the interface guarantee added with
   the explicit u1-then-u2 sequencing fix): the first 8 deviates of two
   fixed seeds, bit-for-bit.  If this test fails, every seeded
   placement and dataset in the repo has silently shifted. *)
let test_rng_gaussian_stream_pinned () =
  let expect_42 =
    [|
      0x1.160aff434622bp-1;
      0x1.ceecb24eab8c2p+0;
      0x1.2d06dee17728ap-6;
      0x1.d4877725ed293p-1;
      0x1.d7dd2fc70572bp-6;
      0x1.1b615727bb0e3p-1;
      0x1.9b685848f051cp-2;
      0x1.8e04e447870d2p+0;
    |]
  in
  let expect_7 =
    [|
      -0x1.766856aa9a2d2p-2;
      0x1.093de7eb90b17p-2;
      -0x1.03a2c761b72c9p-1;
      -0x1.12ce2e86f41a7p+0;
      0x1.1a42e8c18845fp-1;
      0x1.a59127bd87728p-3;
      -0x1.9184060107012p-4;
      0x1.0d64f49dddc1p-1;
    |]
  in
  List.iter
    (fun (seed, expect) ->
      let rng = Rng.create seed in
      Array.iteri
        (fun i e ->
          let got = Rng.gaussian rng in
          Alcotest.(check (float 0.))
            (Printf.sprintf "seed %d deviate %d" seed i)
            e got)
        expect)
    [ (42, expect_42); (7, expect_7) ];
  (* mu/sigma are an affine map of the same underlying stream *)
  let a = Rng.create 42 and b = Rng.create 42 in
  for i = 0 to 7 do
    let plain = Rng.gaussian a in
    let scaled = Rng.gaussian ~mu:3. ~sigma:0.5 b in
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "affine deviate %d" i)
      (3. +. (0.5 *. plain))
      scaled
  done

let test_rng_permutation () =
  let rng = Rng.create 5 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)
(* ------------------------------------------------------------------ *)

let spd_of_seed seed n =
  let rng = Rng.create seed in
  let a = T.randn rng [| n; n |] in
  let ata = T.matmul (T.transpose2 a) a in
  (* + n*I for conditioning *)
  T.init [| n; n |] (fun i ->
      T.get2 ata i.(0) i.(1) +. if i.(0) = i.(1) then float_of_int n else 0.)

let test_cholesky_reconstruct () =
  let a = spd_of_seed 11 5 in
  let l = Linalg.cholesky a in
  let llt = T.matmul l (T.transpose2 l) in
  Alcotest.(check bool) "L L^T = A" true (T.approx_equal ~eps:1e-8 a llt)

let test_cholesky_solve () =
  let a = spd_of_seed 12 6 in
  let rng = Rng.create 13 in
  let x_true = T.randn rng [| 6 |] in
  let b = T.matvec a x_true in
  let l = Linalg.cholesky a in
  let x = Linalg.cholesky_solve l b in
  Alcotest.(check bool) "solves" true (T.approx_equal ~eps:1e-6 x_true x)

let test_cholesky_rejects_indefinite () =
  let a = T.of_array2 [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.check_raises "not PD"
    (Failure "Linalg.cholesky: matrix not positive definite") (fun () ->
      ignore (Linalg.cholesky a))

let prop_cg_solves_spd =
  QCheck.Test.make ~name:"conjugate gradient solves SPD systems" ~count:25
    (QCheck.int_bound 10_000) (fun seed ->
      let n = 4 + (seed mod 12) in
      let a = spd_of_seed seed n in
      let rng = Rng.create (seed + 1) in
      let x_true = T.randn rng [| n |] in
      let b = T.matvec a x_true in
      let matvec v out =
        let t = T.matvec a (T.of_array1 v) in
        Array.iteri (fun i _ -> out.(i) <- T.get_flat t i) out
      in
      let x =
        Linalg.conjugate_gradient ~max_iter:500 ~tol:1e-12 matvec
          (Array.init n (T.get_flat b))
          (Array.make n 0.)
      in
      let ok = ref true in
      for i = 0 to n - 1 do
        if abs_float (x.(i) -. T.get_flat x_true i) > 1e-5 then ok := false
      done;
      !ok)

let test_solve_lower_transposed () =
  let a = spd_of_seed 21 6 in
  let l = Linalg.cholesky a in
  let rng = Rng.create 22 in
  let b = T.randn rng [| 6 |] in
  let x_fast = Linalg.solve_lower_transposed l b in
  let x_ref = Linalg.solve_upper (T.transpose2 l) b in
  Alcotest.(check bool)
    "matches transpose2 + solve_upper" true
    (T.approx_equal ~eps:1e-12 x_ref x_fast)

let test_cg_breakdown_reported () =
  (* indefinite diag(1, -1) with b = (1, 1): the very first search
     direction has p.Ap = 0, so the solver must report Breakdown after
     0 iterations — NOT Max_iter (the bug this pins down: breakdown
     used to be folded into iter := max_iter) *)
  let matvec (v : float array) out =
    out.(0) <- v.(0);
    out.(1) <- -.v.(1)
  in
  let iters = ref (-1) in
  let status = ref Linalg.Converged in
  let _ =
    Linalg.conjugate_gradient ~max_iter:50 ~tol:1e-12 ~iterations_out:iters
      ~status_out:status matvec [| 1.; 1. |] [| 0.; 0. |]
  in
  Alcotest.(check bool)
    "status is Breakdown" true
    (!status = Linalg.Breakdown);
  Alcotest.(check bool)
    "breakdown is not Max_iter" true
    (!status <> Linalg.Max_iter);
  Alcotest.(check int) "real iteration count, not max_iter" 0 !iters;
  Alcotest.(check string) "printable" "breakdown"
    (Linalg.string_of_cg_status !status)

let test_cg_max_iter_reported () =
  let n = 8 in
  let a = spd_of_seed 31 n in
  let rng = Rng.create 32 in
  let x_true = T.randn rng [| n |] in
  let b = T.matvec a x_true in
  let matvec v out =
    let t = T.matvec a (T.of_array1 v) in
    Array.iteri (fun i _ -> out.(i) <- T.get_flat t i) out
  in
  let iters = ref (-1) in
  let status = ref Linalg.Breakdown in
  let _ =
    Linalg.conjugate_gradient ~max_iter:2 ~tol:1e-14 ~iterations_out:iters
      ~status_out:status matvec
      (Array.init n (T.get_flat b))
      (Array.make n 0.)
  in
  Alcotest.(check bool) "status is Max_iter" true (!status = Linalg.Max_iter);
  Alcotest.(check int) "spent the whole budget" 2 !iters

let prop_cg_status_consistent =
  QCheck.Test.make ~name:"CG status matches iterations_out" ~count:25
    (QCheck.int_bound 10_000) (fun seed ->
      let n = 4 + (seed mod 12) in
      let a = spd_of_seed seed n in
      let rng = Rng.create (seed + 1) in
      let x_true = T.randn rng [| n |] in
      let b = T.matvec a x_true in
      let matvec v out =
        let t = T.matvec a (T.of_array1 v) in
        Array.iteri (fun i _ -> out.(i) <- T.get_flat t i) out
      in
      let iters = ref (-1) in
      let status = ref Linalg.Breakdown in
      let _ =
        Linalg.conjugate_gradient ~max_iter:500 ~tol:1e-12
          ~iterations_out:iters ~status_out:status matvec
          (Array.init n (T.get_flat b))
          (Array.make n 0.)
      in
      (* a well-conditioned SPD system must converge, within budget *)
      !status = Linalg.Converged && !iters >= 0 && !iters < 500)

(* ------------------------------------------------------------------ *)
(* Cross-module inlining                                               *)
(* ------------------------------------------------------------------ *)

(* The default build (release, see dune-workspace) compiles without
   -opaque, so the element accessors (all [@inline]) inline into this
   module and the float never leaves a register.  Under -opaque every
   element of these loops costs 4 minor words, a boxed float returned
   by the getter and another passed to the setter: 40k words per
   loop. *)
let test_flat_accessors_unboxed () =
  let n = 10_000 in
  let t = T.zeros [| n |] in
  let t2 = T.zeros [| 100; 100 |] and t3 = T.zeros [| 4; 50; 50 |] in
  let flat () =
    for i = 0 to n - 1 do
      T.set_flat t i (T.get_flat t i +. float_of_int i)
    done
  in
  let rank2 () =
    for i = 0 to 99 do
      for j = 0 to 99 do
        T.set2 t2 i j (T.get2 t2 i j +. 1.)
      done
    done
  in
  let rank3 () =
    for c = 0 to 3 do
      for i = 0 to 49 do
        for j = 0 to 49 do
          T.set3 t3 c i j (T.get3 t3 c i j +. 1.)
        done
      done
    done
  in
  List.iter
    (fun (what, loop) ->
      loop ();
      let w0 = Gc.minor_words () in
      loop ();
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.)) ("minor words of a 10k " ^ what ^ " loop") 0.
        words)
    [ ("get_flat/set_flat", flat); ("get2/set2", rank2); ("get3/set3", rank3) ];
  check_float "loop ran" (2. *. float_of_int (n - 1)) (T.get_flat t (n - 1));
  check_float "rank-2 loop ran" 2. (T.get2 t2 99 99);
  check_float "rank-3 loop ran" 2. (T.get3 t3 3 49 49)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "tensor.basic",
      [
        Alcotest.test_case "make/get/set" `Quick test_make_and_access;
        Alcotest.test_case "make rejects bad length" `Quick test_make_rejects_bad_length;
        Alcotest.test_case "init row-major" `Quick test_init_row_major;
        Alcotest.test_case "rank-3 accessors" `Quick test_get3;
        Alcotest.test_case "reshape shares data" `Quick test_reshape_shares_data;
        Alcotest.test_case "reshape aliasing contract" `Quick test_reshape_aliasing_contract;
        Alcotest.test_case "scalar" `Quick test_scalar;
        Alcotest.test_case "elementwise ops" `Quick test_elementwise;
        Alcotest.test_case "reductions" `Quick test_reductions;
        Alcotest.test_case "axpy" `Quick test_axpy;
        Alcotest.test_case "flat accessors allocation-free" `Quick
          test_flat_accessors_unboxed;
      ] );
    ( "tensor.linear",
      [
        Alcotest.test_case "matmul/transpose/matvec" `Quick test_matmul;
        qtest prop_matmul_assoc;
      ] );
    ( "tensor.conv",
      [
        Alcotest.test_case "1x1 identity" `Quick test_conv2d_identity;
        Alcotest.test_case "3x3 padded sums" `Quick test_conv2d_known;
        Alcotest.test_case "strided shape" `Quick test_conv2d_stride_shape;
        Alcotest.test_case "bias broadcast" `Quick test_conv2d_bias;
        Alcotest.test_case "transpose shape" `Quick test_conv_transpose_shape;
        qtest prop_conv_adjoint;
        qtest prop_conv_weight_grad;
        qtest prop_conv_transpose_adjoint;
      ] );
    ( "tensor.maps",
      [
        Alcotest.test_case "maxpool fwd/bwd" `Quick test_maxpool;
        Alcotest.test_case "resize roundtrip" `Quick test_resize_nearest_roundtrip;
        Alcotest.test_case "concat/slice channels" `Quick test_concat_slice_channels;
        Alcotest.test_case "rank-2 channel promotion" `Quick test_concat_rank2_promotion;
        Alcotest.test_case "rot90 four-cycle" `Quick test_rot90_cycle;
        Alcotest.test_case "flips involutive" `Quick test_flips_involutive;
        qtest prop_resize_preserves_range;
      ] );
    ( "tensor.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "split independence" `Quick test_rng_split_independence;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "gaussian stream pinned" `Quick
          test_rng_gaussian_stream_pinned;
        Alcotest.test_case "permutation" `Quick test_rng_permutation;
      ] );
    ( "tensor.linalg",
      [
        Alcotest.test_case "cholesky reconstructs" `Quick test_cholesky_reconstruct;
        Alcotest.test_case "cholesky solve" `Quick test_cholesky_solve;
        Alcotest.test_case "cholesky rejects indefinite" `Quick test_cholesky_rejects_indefinite;
        Alcotest.test_case "transposed back-substitution" `Quick
          test_solve_lower_transposed;
        Alcotest.test_case "CG breakdown reported" `Quick
          test_cg_breakdown_reported;
        Alcotest.test_case "CG max_iter reported" `Quick
          test_cg_max_iter_reported;
        qtest prop_cg_solves_spd;
        qtest prop_cg_status_consistent;
      ] );
  ]
