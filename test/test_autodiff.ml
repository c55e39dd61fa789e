(* Tests for the reverse-mode autodiff tape: every operation's gradient
   is validated against central finite differences, which is the same
   guarantee PyTorch's gradcheck gives the original implementation. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module V = Dco3d_autodiff.Value
module Opt = Dco3d_autodiff.Optimizer
module Obs = Dco3d_obs.Obs
module Pool = Dco3d_parallel.Pool

let check_float = Alcotest.(check (float 1e-9))

let test_leaf_kinds () =
  let c = V.const (T.of_array1 [| 1.; 2. |]) in
  let p = V.param (T.of_array1 [| 1.; 2. |]) in
  Alcotest.(check bool) "const no grad" false (V.requires_grad c);
  Alcotest.(check bool) "param grad" true (V.requires_grad p)

let test_simple_chain () =
  (* loss = sum ((2x + 1)^2); dloss/dx = 4(2x+1) *)
  let x = V.param (T.of_array1 [| 1.; -0.5; 3. |]) in
  let loss = V.sum (V.sqr (V.add_scalar 1. (V.scale 2. x))) in
  V.backward loss;
  let g = V.grad x in
  check_float "g0" (4. *. 3.) (T.get_flat g 0);
  check_float "g1" 0. (T.get_flat g 1);
  check_float "g2" (4. *. 7.) (T.get_flat g 2)

let test_grad_accumulates_fanout () =
  (* y = x + x: dy/dx = 2 through two paths *)
  let x = V.param (T.of_array1 [| 5. |]) in
  let loss = V.sum (V.add x x) in
  V.backward loss;
  check_float "fanout grad" 2. (T.get_flat (V.grad x) 0)

let test_backward_requires_scalar () =
  let x = V.param (T.of_array1 [| 1.; 2. |]) in
  Alcotest.check_raises "non-scalar root"
    (Invalid_argument "Value.backward: root must be a scalar") (fun () ->
      V.backward (V.scale 2. x))

let test_zero_grad () =
  let x = V.param (T.of_array1 [| 1. |]) in
  let loss = V.sum x in
  V.backward loss;
  check_float "grad set" 1. (T.get_flat (V.grad x) 0);
  V.zero_grad x;
  check_float "grad cleared" 0. (T.get_flat (V.grad x) 0)

(* A custom node whose backward returns [grads] for the single parent
   [x]. *)
let custom_with x grads =
  V.custom ~data:(T.copy (V.data x)) ~parents:[ x ] ~backward:(fun _ -> grads)

let test_backward_wrong_shape () =
  let x = V.param (T.of_array1 [| 1.; 2.; 3. |]) in
  let bad () = custom_with x [ Some (T.zeros [| 2 |]) ] in
  let err =
    Invalid_argument "Value.backward: gradient of shape [2] for a parent of shape [3]"
  in
  (* the first gradient reaching x, and one added to an existing one *)
  Alcotest.check_raises "first accumulation" err (fun () -> V.backward (V.sum (bad ())));
  V.zero_grad x;
  Alcotest.check_raises "later accumulation" err (fun () ->
      V.backward (V.add (V.sum x) (V.sum (bad ()))))

let test_backward_arity () =
  let x = V.param (T.of_array1 [| 1. |]) in
  let y = custom_with x [ Some (T.ones [| 1 |]); None ] in
  Alcotest.check_raises "two gradients for one parent"
    (Invalid_argument "Value.backward: backward arity mismatch (2 gradients for 1 parents)")
    (fun () -> V.backward (V.sum y))

let test_backward_wrt_leaves_only () =
  let x = V.param (T.of_array1 [| 1. |]) in
  let y = V.scale 2. x in
  Alcotest.check_raises "interior node"
    (Invalid_argument "Value.backward: ~wrt must list leaves") (fun () ->
      V.backward ~wrt:[ y ] (V.sum y))

(* ------------------------------------------------------------------ *)
(* Gradient pruning: [backward ~wrt] against the full pass              *)
(* ------------------------------------------------------------------ *)

(* A value of the test network and whether it has a [wrt] leaf among
   its ancestors, which is what makes the tape compute its gradient. *)
type node = { v : V.t; live : bool }

(* Builds a small random network from [seed] — a conv2d (optionally
   followed by a conv2d_transpose) and a matmul + add_bias_rows branch,
   each optionally through a custom node, over inputs that are constant
   or trainable — and sums both branches into a scalar loss.  Param [i]
   (in creation order) is in [wrt] when [in_wrt i].  Also counts, from
   the structure alone, the convolution input and weight gradients the
   pruned pass must compute. *)
let prune_net ~seed ~in_wrt =
  let rng = Rng.create seed in
  let params = ref [] and dx = ref 0 and dw = ref 0 in
  let input shape =
    let t = T.randn rng shape in
    if Rng.bool rng then { v = V.const t; live = false } else begin
      let v = V.param t in
      let live = in_wrt (List.length !params) in
      params := !params @ [ (v, live) ];
      { v; live }
    end
  in
  let param shape =
    let v = V.param (T.randn rng ~sigma:0.5 shape) in
    let live = in_wrt (List.length !params) in
    params := !params @ [ (v, live) ];
    { v; live }
  in
  let op parents f =
    let live = List.exists (fun p -> p.live) parents in
    { v = f (List.map (fun p -> p.v) parents); live }
  in
  let maybe f x = if Rng.bool rng then f x else x in
  let cube x =
    op [ x ] (function
      | [ x ] ->
          V.custom
            ~data:(T.map (fun a -> a *. a *. a) (V.data x))
            ~parents:[ x ]
            ~backward:(fun g ->
              [ Some (T.map2 (fun gv a -> gv *. 3. *. a *. a) g (V.data x)) ])
      | _ -> assert false)
  in
  let loss_of x = op [ op [ x ] (function [ x ] -> V.sqr x | _ -> assert false) ] (function
      | [ x ] -> V.sum x | _ -> assert false)
  in
  let conv ~transpose x ci co =
    let k = if transpose then 2 else 3 in
    let w = param (if transpose then [| ci; co; k; k |] else [| co; ci; k; k |]) in
    let b = if Rng.bool rng then Some (param [| co |]) else None in
    let y = op (x :: w :: Option.to_list b) (function
      | x :: weight :: b ->
          let bias = match b with [ b ] -> Some b | _ -> None in
          if transpose then V.conv2d_transpose ~stride:2 x ~weight ~bias
          else V.conv2d ~pad:1 x ~weight ~bias
      | _ -> assert false)
    in
    if y.live && x.live then incr dx;
    if y.live && w.live then incr dw;
    y
  in
  let ci = 1 + Rng.int rng 3 and c1 = 1 + Rng.int rng 3 and hw = 3 + Rng.int rng 3 in
  let img = conv ~transpose:false (input [| 1; ci; hw; hw |]) ci c1 in
  let img = maybe (fun x -> conv ~transpose:true x c1 (1 + Rng.int rng 2)) img in
  let img = maybe cube img in
  let n = 2 + Rng.int rng 3 and k = 2 + Rng.int rng 3 and f = 1 + Rng.int rng 3 in
  let a = input [| n; k |] in
  let m = op [ a; param [| k; f |] ] (function
      | [ a; b ] -> V.matmul a b | _ -> assert false)
  in
  let m =
    maybe
      (fun m -> op [ m; param [| f |] ] (function
        | [ m; b ] -> V.add_bias_rows m b | _ -> assert false))
      m
  in
  let m = maybe cube m in
  let loss =
    op [ loss_of img; loss_of m ] (function [ a; b ] -> V.add a b | _ -> assert false)
  in
  (loss.v, !params, !dx, !dw)

let bits t = Array.map Int64.bits_of_float (Array.init (T.numel t) (T.get_flat t))

let with_obs f =
  let was = Obs.enabled () in
  Obs.enable ();
  Fun.protect ~finally:(fun () -> if not was then Obs.disable ()) f

(* For random networks and random [wrt] subsets, at a given job count:
   the [wrt] gradients are bit-identical to a full pass, params outside
   [wrt] keep the gradient they had, and a convolution computes its
   input (weight) gradient only when its input (weight) leads to a
   [wrt] leaf — a convolution over a constant never runs it. *)
let prop_pruned_backward jobs =
  QCheck.Test.make
    ~name:(Printf.sprintf "backward ~wrt matches the full pass (jobs %d)" jobs)
    ~count:40 (QCheck.int_bound 100_000) (fun seed ->
      Pool.set_jobs ~exact:true jobs;
      Fun.protect ~finally:(fun () -> Pool.set_jobs 1) @@ fun () ->
      let in_wrt i = Hashtbl.hash (seed, i) land 1 = 0 in
      let full_loss, full, _, _ = prune_net ~seed ~in_wrt:(fun _ -> true) in
      V.backward full_loss;
      let loss, params, dx, dw = prune_net ~seed ~in_wrt in
      let wrt = List.filter_map (fun (p, w) -> if w then Some p else None) params in
      let others = List.filter_map (fun (p, w) -> if w then None else Some p) params in
      (* give every param outside [wrt] a gradient of ones first *)
      if others <> [] then V.backward (V.add_list (List.map V.sum others));
      let counts () =
        ( Obs.counter_value "autodiff/conv_input_grads",
          Obs.counter_value "autodiff/conv_weight_grads" )
      in
      let (x0, w0), (x1, w1) =
        with_obs (fun () ->
            let before = counts () in
            V.backward ~wrt loss;
            (before, counts ()))
      in
      List.for_all2
        (fun (fp, _) (p, w) ->
          if w then bits (V.grad p) = bits (V.grad fp)
          else bits (V.grad p) = bits (T.ones (V.shape p)))
        full params
      && x1 - x0 = dx
      && w1 - w0 = dw)

(* ------------------------------------------------------------------ *)
(* Finite-difference checks on every op                                *)
(* ------------------------------------------------------------------ *)

let gc name f x0 = Alcotest.(check bool) name true (V.gradient_check f x0)

let rng = Rng.create 100

let test_gc_elementwise () =
  let x0 = T.randn (Rng.copy rng) [| 7 |] in
  gc "relu" (fun x -> V.sum (V.relu x)) (T.add_scalar 0.3 x0);
  gc "leaky_relu" (fun x -> V.sum (V.leaky_relu 0.1 x)) (T.add_scalar 0.3 x0);
  gc "sigmoid" (fun x -> V.sum (V.sigmoid x)) x0;
  gc "tanh" (fun x -> V.sum (V.tanh_ x)) x0;
  gc "sqr" (fun x -> V.sum (V.sqr x)) x0;
  gc "sqrt" (fun x -> V.sum (V.sqrt_ x)) (T.add_scalar 2. (T.sqr x0));
  gc "neg-mean" (fun x -> V.mean (V.neg x)) x0;
  gc "mul-self" (fun x -> V.sum (V.mul x x)) x0;
  gc "sub" (fun x -> V.sum (V.sub (V.scale 3. x) x)) x0

let test_gc_matmul () =
  let a0 = T.randn (Rng.copy rng) [| 3; 4 |] in
  let b = T.randn (Rng.create 7) [| 4; 2 |] in
  gc "matmul-left" (fun a -> V.sum (V.matmul a (V.const b))) a0;
  let a = T.randn (Rng.create 8) [| 3; 4 |] in
  gc "matmul-right" (fun bv -> V.sum (V.matmul (V.const a) bv))
    (T.randn (Rng.create 9) [| 4; 2 |])

let test_gc_dot_and_losses () =
  let x0 = T.randn (Rng.create 10) [| 6 |] in
  let y = T.randn (Rng.create 11) [| 6 |] in
  gc "dot" (fun x -> V.dot x (V.const y)) x0;
  gc "mse" (fun x -> V.mse x y) x0;
  gc "rmse_frobenius" (fun x -> V.rmse_frobenius x y) x0

let test_gc_bias_rows () =
  let x = T.randn (Rng.create 12) [| 4; 3 |] in
  gc "bias rows (bias)" (fun b ->
      V.sum (V.sqr (V.add_bias_rows (V.const x) b)))
    (T.randn (Rng.create 13) [| 3 |]);
  gc "bias rows (x)" (fun xv ->
      V.sum (V.sqr (V.add_bias_rows xv (V.const (T.of_array1 [| 1.; 2.; 3. |])))))
    x

let test_gc_conv2d () =
  (* two samples: the weight and bias gradients sum the batch *)
  let x0 = T.randn (Rng.create 14) [| 2; 2; 5; 5 |] in
  let w = T.randn (Rng.create 15) [| 3; 2; 3; 3 |] in
  let b = T.randn (Rng.create 16) [| 3 |] in
  gc "conv2d input" (fun x ->
      V.sum (V.sqr (V.conv2d ~pad:1 x ~weight:(V.const w) ~bias:(Some (V.const b)))))
    x0;
  gc "conv2d weight" (fun wv ->
      V.sum (V.sqr (V.conv2d ~pad:1 (V.const x0) ~weight:wv ~bias:None)))
    w;
  gc "conv2d bias" (fun bv ->
      V.sum (V.sqr (V.conv2d ~pad:1 (V.const x0) ~weight:(V.const w) ~bias:(Some bv))))
    b

let test_gc_conv2d_stride () =
  let x0 = T.randn (Rng.create 17) [| 1; 1; 6; 6 |] in
  let w = T.randn (Rng.create 18) [| 2; 1; 3; 3 |] in
  gc "strided conv input" (fun x ->
      V.sum (V.sqr (V.conv2d ~stride:2 ~pad:1 x ~weight:(V.const w) ~bias:None)))
    x0

let test_gc_conv2d_transpose () =
  let x0 = T.randn (Rng.create 19) [| 2; 3; 4; 4 |] in
  let w = T.randn (Rng.create 20) [| 3; 2; 2; 2 |] in
  let b = T.randn (Rng.create 21) [| 2 |] in
  gc "convT input" (fun x ->
      V.sum (V.sqr (V.conv2d_transpose ~stride:2 x ~weight:(V.const w) ~bias:(Some (V.const b)))))
    x0;
  gc "convT weight" (fun wv ->
      V.sum (V.sqr (V.conv2d_transpose ~stride:2 (V.const x0) ~weight:wv ~bias:None)))
    w;
  gc "convT bias" (fun bv ->
      V.sum (V.sqr (V.conv2d_transpose ~stride:2 (V.const x0) ~weight:(V.const w) ~bias:(Some bv))))
    b

let test_gc_maxpool () =
  let x0 = T.randn (Rng.create 22) [| 2; 2; 4; 4 |] in
  gc "maxpool" (fun x -> V.sum (V.sqr (V.maxpool2 x))) x0

let test_gc_concat_slice () =
  let x0 = T.randn (Rng.create 23) [| 2; 3; 3 |] in
  let other = T.randn (Rng.create 24) [| 1; 3; 3 |] in
  gc "concat" (fun x ->
      V.sum (V.sqr (V.concat_channels [ x; V.const other ])))
    x0;
  gc "slice" (fun x -> V.sum (V.sqr (V.slice_channels x 1 1))) x0;
  gc "reshape" (fun x -> V.sum (V.sqr (V.reshape x [| 9; 2 |]))) x0;
  (* rank 4: per-sample channels *)
  let xb = T.randn (Rng.create 26) [| 2; 2; 3; 3 |] in
  let otherb = T.randn (Rng.create 27) [| 2; 1; 3; 3 |] in
  gc "batched concat" (fun x ->
      V.sum (V.sqr (V.concat_channels [ V.const otherb; x ])))
    xb;
  gc "batched slice" (fun x -> V.sum (V.sqr (V.slice_channels x 1 1))) xb

(* Stack two samples, swap the batch's halves and split it again: each
   operation only moves values, so the gradients are exact, and a
   sample's gradient reaches only that sample. *)
let test_gc_batch_axis () =
  let x0 = T.randn (Rng.create 28) [| 2; 3; 3 |] in
  let y0 = T.randn (Rng.create 29) [| 2; 3; 3 |] in
  let weights = T.randn (Rng.create 30) [| 2; 2; 3; 3 |] in
  gc "stack, swap, unstack" (fun x ->
      let b = V.swap_halves (V.stack [ x; V.const y0 ]) in
      let s = V.unstack (V.mul b (V.const weights)) in
      V.add (V.sum (V.sqr s.(0))) (V.scale 3. (V.sum s.(1))))
    x0;
  let x = V.param x0 and y = V.param y0 in
  let s = V.unstack (V.swap_halves (V.stack [ x; y ])) in
  V.backward (V.sum s.(1));
  Alcotest.(check bool) "x gets sample 1's gradient" true
    (T.approx_equal ~eps:0. (T.ones [| 2; 3; 3 |]) (V.grad x));
  Alcotest.(check bool) "y gets zeros" true
    (T.approx_equal ~eps:0. (T.zeros [| 2; 3; 3 |]) (V.grad y));
  (* a -0. in one sample's gradient keeps its sign when both samples'
     gradients accumulate into the batch *)
  let x = V.param x0 and y = V.param y0 in
  let s = V.unstack (V.stack [ x; y ]) in
  let signed = T.init [| 2; 3; 3 |] (fun i -> if i.(2) = 1 then -0. else 1.) in
  V.backward (V.add (V.dot s.(0) (V.const signed)) (V.dot s.(1) (V.const signed)));
  List.iter
    (fun (what, v) ->
      Alcotest.(check (array int64)) (what ^ " gradient bits")
        (Array.init 18 (fun i -> Int64.bits_of_float (T.get_flat signed i)))
        (Array.init 18 (fun i -> Int64.bits_of_float (T.get_flat (V.grad v) i))))
    [ ("x", x); ("y", y) ];
  Alcotest.check_raises "odd batch"
    (Invalid_argument "Value.swap_halves: odd batch") (fun () ->
      ignore (V.swap_halves (V.const (T.zeros [| 3; 1 |]))))

let test_gc_columns () =
  let x0 = T.randn (Rng.create 25) [| 5; 3 |] in
  gc "columns" (fun x ->
      let cols = V.columns x in
      V.add_list [ V.sum (V.sqr cols.(0)); V.sum (V.sqr cols.(2)) ])
    x0

let test_custom_op () =
  (* custom op computing x^3 with hand-written backward 3x^2 *)
  let x0 = T.of_array1 [| 1.5; -2.; 0.5 |] in
  gc "custom cube" (fun x ->
      let y =
        V.custom
          ~data:(T.map (fun v -> v ** 3.) (V.data x))
          ~parents:[ x ]
          ~backward:(fun g ->
            [ Some (T.map2 (fun gv xv -> gv *. 3. *. xv *. xv) g (V.data x)) ])
      in
      V.sum y)
    x0

(* ------------------------------------------------------------------ *)
(* Property: random DAGs of safe ops pass the gradient check.           *)
(* ------------------------------------------------------------------ *)

(* At most two [mul v v] per DAG: each one squares the signal, so three
   or four of them make the loss grow like x^32, and the central
   difference's truncation error then exceeds the tolerance even though
   the analytic gradient is right.  A draw past the cap picks one of
   the other ops instead. *)

let prop_random_graphs =
  QCheck.Test.make ~name:"random op DAGs pass gradient check" ~count:25
    (QCheck.int_bound 100_000) (fun seed ->
      let rng = Rng.create seed in
      let x0 = T.randn rng [| 4; 4 |] in
      let ops =
        [|
          (fun v -> V.tanh_ v);
          (fun v -> V.sigmoid v);
          (fun v -> V.scale 1.3 v);
          (fun v -> V.add_scalar 0.7 v);
          (fun v -> V.mul v v);
          (fun v -> V.leaky_relu 0.2 v);
        |]
      in
      let mul = 4 and n_ops = Array.length ops in
      let depth = 1 + Rng.int rng 4 in
      let muls = ref 0 in
      let picks =
        Array.init depth (fun _ ->
            let k = Rng.int rng n_ops in
            if k <> mul then k
            else if !muls < 2 then (incr muls; k)
            else
              let k' = Rng.int rng (n_ops - 1) in
              if k' >= mul then k' + 1 else k')
      in
      V.gradient_check
        (fun x ->
          let v = Array.fold_left (fun acc k -> ops.(k) acc) x picks in
          V.mean (V.sqr v))
        x0)

(* ------------------------------------------------------------------ *)
(* Optimizers                                                          *)
(* ------------------------------------------------------------------ *)

let quadratic_loss target p = V.mse p (T.of_array1 target)

let test_sgd_converges () =
  let p = V.param (T.of_array1 [| 0.; 0. |]) in
  let opt = Opt.sgd ~lr:0.1 [ p ] in
  for _ = 1 to 200 do
    let loss = quadratic_loss [| 3.; -1. |] p in
    V.backward loss;
    Opt.step opt
  done;
  Alcotest.(check (float 1e-3)) "x0" 3. (T.get_flat (V.data p) 0);
  Alcotest.(check (float 1e-3)) "x1" (-1.) (T.get_flat (V.data p) 1)

let test_sgd_momentum_converges () =
  let p = V.param (T.of_array1 [| 10. |]) in
  let opt = Opt.sgd ~momentum:0.9 ~lr:0.02 [ p ] in
  for _ = 1 to 300 do
    let loss = quadratic_loss [| -4. |] p in
    V.backward loss;
    Opt.step opt
  done;
  Alcotest.(check (float 1e-2)) "momentum converges" (-4.)
    (T.get_flat (V.data p) 0)

let test_adam_converges () =
  let p = V.param (T.of_array1 [| 5.; 5.; 5. |]) in
  let opt = Opt.adam ~lr:0.1 [ p ] in
  for _ = 1 to 500 do
    let loss = quadratic_loss [| 1.; 2.; 3. |] p in
    V.backward loss;
    Opt.step opt
  done;
  let d = V.data p in
  Alcotest.(check (float 1e-2)) "adam x0" 1. (T.get_flat d 0);
  Alcotest.(check (float 1e-2)) "adam x1" 2. (T.get_flat d 1);
  Alcotest.(check (float 1e-2)) "adam x2" 3. (T.get_flat d 2)

let test_weight_decay_shrinks () =
  (* with zero data-gradient, weight decay alone must shrink weights *)
  let p = V.param (T.of_array1 [| 2. |]) in
  let opt = Opt.sgd ~weight_decay:0.1 ~lr:0.5 [ p ] in
  for _ = 1 to 10 do
    (* loss independent of p: backward leaves grad at zero *)
    Opt.step opt
  done;
  Alcotest.(check bool) "decayed" true (T.get_flat (V.data p) 0 < 2.)

let test_clip_grad_norm () =
  let p = V.param (T.of_array1 [| 0.; 0. |]) in
  let opt = Opt.sgd ~lr:1. [ p ] in
  let loss = V.scale 100. (V.sum p) in
  V.backward loss;
  Alcotest.(check (float 1e-6)) "pre-clip norm" (100. *. sqrt 2.) (Opt.grad_norm opt);
  Opt.clip_grad_norm opt 1.;
  Alcotest.(check (float 1e-6)) "post-clip norm" 1. (Opt.grad_norm opt)

let test_lr_accessors () =
  let opt = Opt.sgd ~lr:0.5 [] in
  Alcotest.(check (float 0.)) "lr" 0.5 (Opt.lr opt);
  Opt.set_lr opt 0.25;
  Alcotest.(check (float 0.)) "set_lr" 0.25 (Opt.lr opt)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "autodiff.tape",
      [
        Alcotest.test_case "leaf kinds" `Quick test_leaf_kinds;
        Alcotest.test_case "simple chain rule" `Quick test_simple_chain;
        Alcotest.test_case "fan-out accumulation" `Quick test_grad_accumulates_fanout;
        Alcotest.test_case "scalar root required" `Quick test_backward_requires_scalar;
        Alcotest.test_case "zero_grad" `Quick test_zero_grad;
        Alcotest.test_case "custom op (Eq.6 mechanism)" `Quick test_custom_op;
        Alcotest.test_case "wrong-shaped gradient" `Quick test_backward_wrong_shape;
        Alcotest.test_case "backward arity" `Quick test_backward_arity;
        Alcotest.test_case "wrt lists leaves" `Quick test_backward_wrt_leaves_only;
        qtest (prop_pruned_backward 1);
        qtest (prop_pruned_backward 4);
      ] );
    ( "autodiff.gradcheck",
      [
        Alcotest.test_case "elementwise ops" `Quick test_gc_elementwise;
        Alcotest.test_case "matmul" `Quick test_gc_matmul;
        Alcotest.test_case "dot and losses" `Quick test_gc_dot_and_losses;
        Alcotest.test_case "bias rows" `Quick test_gc_bias_rows;
        Alcotest.test_case "conv2d" `Quick test_gc_conv2d;
        Alcotest.test_case "conv2d strided" `Quick test_gc_conv2d_stride;
        Alcotest.test_case "conv2d transpose" `Quick test_gc_conv2d_transpose;
        Alcotest.test_case "maxpool" `Quick test_gc_maxpool;
        Alcotest.test_case "concat/slice/reshape" `Quick test_gc_concat_slice;
        Alcotest.test_case "stack/swap/unstack" `Quick test_gc_batch_axis;
        Alcotest.test_case "columns" `Quick test_gc_columns;
        qtest prop_random_graphs;
      ] );
    ( "autodiff.optim",
      [
        Alcotest.test_case "sgd converges" `Quick test_sgd_converges;
        Alcotest.test_case "sgd+momentum converges" `Quick test_sgd_momentum_converges;
        Alcotest.test_case "adam converges" `Quick test_adam_converges;
        Alcotest.test_case "weight decay" `Quick test_weight_decay_shrinks;
        Alcotest.test_case "clip grad norm" `Quick test_clip_grad_norm;
        Alcotest.test_case "lr accessors" `Quick test_lr_accessors;
      ] );
  ]
