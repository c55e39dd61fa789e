(* Edge-case and error-path tests across libraries: the behaviours a
   downstream user hits first when they misuse an API. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module V = Dco3d_autodiff.Value
module Csr = Dco3d_graph.Csr
module Nl = Dco3d_netlist.Netlist
module Cl = Dco3d_netlist.Cell_lib
module Gen = Dco3d_netlist.Generator
module Fp = Dco3d_place.Floorplan
module Sta = Dco3d_sta.Sta

(* ------------------------------------------------------------------ *)
(* Tensor                                                              *)
(* ------------------------------------------------------------------ *)

let test_tensor_bad_indices () =
  let t = T.zeros [| 2; 2 |] in
  Alcotest.check_raises "oob" (Invalid_argument "Tensor: index out of bounds")
    (fun () -> ignore (T.get t [| 2; 0 |]));
  Alcotest.check_raises "rank" (Invalid_argument "Tensor: index rank mismatch")
    (fun () -> ignore (T.get t [| 0 |]))

let test_tensor_shape_mismatches () =
  let a = T.zeros [| 2 |] and b = T.zeros [| 3 |] in
  Alcotest.check_raises "map2" (Invalid_argument "Tensor.map2: shape mismatch")
    (fun () -> ignore (T.add a b));
  Alcotest.check_raises "dot" (Invalid_argument "Tensor.dot: shape mismatch")
    (fun () -> ignore (T.dot a b));
  Alcotest.check_raises "matmul rank"
    (Invalid_argument "Tensor.matmul: rank-2 only") (fun () ->
      ignore (T.matmul a b))

(* A NaN anywhere must fail the comparison the numeric tests rest on. *)
let test_tensor_approx_equal_nan () =
  let v xs = T.of_array1 xs in
  let check what expected a b =
    Alcotest.(check bool) what expected (T.approx_equal a b)
  in
  check "equal" true (v [| 1.; 2. |]) (v [| 1.; 2. |]);
  check "NaN vs 1." false (v [| nan |]) (v [| 1. |]);
  check "1. vs NaN" false (v [| 1. |]) (v [| nan |]);
  check "NaN vs NaN" false (v [| nan |]) (v [| nan |]);
  Alcotest.(check bool) "NaN vs NaN at eps = infinity" false
    (T.approx_equal ~eps:infinity (v [| nan |]) (v [| nan |]));
  check "shape mismatch" false (v [| 1.; 2. |]) (T.of_array2 [| [| 1.; 2. |] |])

let test_tensor_conv_errors () =
  let x = T.zeros [| 1; 2; 4; 4 |] in
  let w_bad = T.zeros [| 3; 5; 3; 3 |] in
  Alcotest.check_raises "channel mismatch"
    (Invalid_argument "Tensor.conv2d: channel mismatch between input and weight")
    (fun () -> ignore (T.conv2d x ~weight:w_bad ~bias:None));
  let odd = T.zeros [| 1; 1; 3; 4 |] in
  Alcotest.check_raises "odd pool"
    (Invalid_argument "Tensor.maxpool2: spatial dimensions must be even")
    (fun () -> ignore (T.maxpool2 odd));
  Alcotest.check_raises "rank-3 conv input"
    (Invalid_argument "Tensor.conv2d: expected a rank-4 tensor") (fun () ->
      ignore (T.conv2d (T.zeros [| 2; 4; 4 |]) ~weight:w_bad ~bias:None))

(* Every public conv entry reads and writes with unchecked accesses, so
   a malformed call must be rejected up front, naming both shapes. *)
let test_tensor_conv_malformed () =
  let raises what msg f =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let x = T.zeros [| 1; 2; 6; 6 |] and w = T.zeros [| 4; 2; 3; 3 |] in
  let long_bias = Some (T.zeros [| 9 |]) in
  raises "conv2d bias longer than co"
    "Tensor.conv2d: bias shape [9] does not match weight shape [4; 2; 3; 3]"
    (fun () -> T.conv2d ~pad:1 x ~weight:w ~bias:long_bias);
  raises "conv2d stride 0" "Tensor.conv2d: stride must be >= 1" (fun () ->
      T.conv2d ~stride:0 x ~weight:w ~bias:None);
  (* transposed weights are [ci; co; kh; kw]: co = 3 here *)
  let tw = T.zeros [| 2; 3; 2; 2 |] and short_bias = Some (T.zeros [| 1 |]) in
  raises "conv2d_transpose short bias"
    "Tensor.conv2d_transpose: bias shape [1] does not match weight shape [2; \
     3; 2; 2]"
    (fun () -> T.conv2d_transpose ~stride:2 x ~weight:tw ~bias:short_bias);
  (* a negative pad would put the stride-phase lowering's tap residues
     outside [0, stride) *)
  let x8 = T.zeros [| 1; 8; 8; 8 |] and w8 = T.zeros [| 8; 8; 2; 2 |] in
  raises "conv2d negative pad" "Tensor.conv2d: pad must be >= 0" (fun () ->
      T.conv2d ~pad:(-1) x ~weight:w ~bias:None);
  raises "conv2d_transpose negative pad"
    "Tensor.conv2d_transpose: pad must be >= 0" (fun () ->
      T.conv2d_transpose ~stride:2 ~pad:(-1) x8 ~weight:w8 ~bias:None);
  raises "backward_input negative pad"
    "Tensor.conv2d_backward_input: pad must be >= 0" (fun () ->
      T.conv2d_backward_input ~stride:2 ~pad:(-1) ~input_shape:[| 1; 8; 8; 8 |]
        ~weight:w8 (T.zeros [| 1; 8; 3; 3 |]));
  raises "backward_weight negative pad"
    "Tensor.conv2d_backward_weight: pad must be >= 0" (fun () ->
      T.conv2d_backward_weight ~stride:2 ~pad:(-1) ~input:x8
        ~weight_shape:[| 8; 8; 2; 2 |] (T.zeros [| 1; 8; 3; 3 |]));
  let gout = T.zeros [| 1; 4; 6; 6 |] in
  raises "backward_input input channels"
    "Tensor.conv2d_backward_input: input shape [1; 3; 6; 6] does not match \
     weight shape [4; 2; 3; 3]"
    (fun () ->
      T.conv2d_backward_input ~pad:1 ~input_shape:[| 1; 3; 6; 6 |] ~weight:w
        gout);
  raises "backward_input gradient channels"
    "Tensor.conv2d_backward_input: gradient shape [1; 3; 6; 6] does not match \
     output shape [1; 4; 6; 6]"
    (fun () ->
      T.conv2d_backward_input ~pad:1 ~input_shape:[| 1; 2; 6; 6 |] ~weight:w
        (T.zeros [| 1; 3; 6; 6 |]));
  raises "backward_input batch size"
    "Tensor.conv2d_backward_input: gradient shape [1; 4; 6; 6] does not match \
     output shape [2; 4; 6; 6]"
    (fun () ->
      T.conv2d_backward_input ~pad:1 ~input_shape:[| 2; 2; 6; 6 |] ~weight:w
        gout);
  raises "backward_weight gradient channels"
    "Tensor.conv2d_backward_weight: gradient shape [1; 4; 6; 6] does not \
     match output shape [1; 5; 6; 6]"
    (fun () ->
      T.conv2d_backward_weight ~pad:1 ~input:x ~weight_shape:[| 5; 2; 3; 3 |]
        gout);
  raises "backward_weight gradient size"
    "Tensor.conv2d_backward_weight: gradient shape [1; 4; 6; 6] does not \
     match output shape [1; 4; 4; 4]"
    (fun () ->
      T.conv2d_backward_weight ~input:x ~weight_shape:[| 4; 2; 3; 3 |] gout);
  raises "backward_weight input channels"
    "Tensor.conv2d_backward_weight: input shape [1; 2; 6; 6] does not match \
     weight shape [4; 3; 3; 3]"
    (fun () ->
      T.conv2d_backward_weight ~pad:1 ~input:x ~weight_shape:[| 4; 3; 3; 3 |]
        gout)

(* [Tensor.gemm_gather] hands raw arrays to an unchecked C kernel, so
   every length and the descriptors' reach into the source are checked
   before any read; a short array or an outlying offset must raise,
   never read or write out of bounds. *)
let test_gemm_gather_bounds () =
  let m = 2 and k = 3 and n = 5 in
  let a = Array.init (m * k) float_of_int in
  let b = Array.init (k * n) (fun i -> float_of_int (i + 1)) in
  (* dense descriptors: row p at p*n, column j at x = j, one 1 x n plane *)
  let rows = Array.init (3 * k) (fun i -> if i mod 3 = 0 then i / 3 * n else 0) in
  let cols = Array.init (3 * n) (fun i -> if i mod 3 = 2 then i / 3 else 0) in
  let call ?(m = m) ?(src = b) ?(rows = rows) ?(cols = cols) ?(a = a)
      ?(out = Array.make (m * n) 0.) ?(h = 1) ?(w = n) () =
    T.gemm_gather ~m ~k ~n ~h ~w src rows cols a out;
    out
  in
  let expected = T.matmul (T.make [| m; k |] a) (T.make [| k; n |] b) in
  Alcotest.(check bool) "well-formed call = matmul" true
    (T.approx_equal ~eps:0. expected (T.make [| m; n |] (call ())));
  let short = "Tensor.gemm_gather: array shorter than its shape"
  and outside = "Tensor.gemm_gather: descriptors reach outside the source" in
  let raises what msg f =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  raises "short a" short (fun () -> call ~a:(Array.make ((m * k) - 1) 0.) ());
  raises "short out" short (fun () -> call ~out:(Array.make ((m * n) - 1) 0.) ());
  raises "short rows" short (fun () -> call ~rows:(Array.sub rows 0 ((3 * k) - 1)) ());
  raises "short cols" short (fun () -> call ~cols:(Array.sub cols 0 ((3 * n) - 1)) ());
  raises "short src" outside (fun () -> call ~src:(Array.sub b 0 ((k * n) - 1)) ());
  let bumped d i v = Array.mapi (fun j x -> if j = i then v else x) d in
  raises "row offset past the source" outside (fun () ->
      call ~rows:(bumped rows (3 * (k - 1)) (k * n)) ());
  raises "column offset past the source" outside (fun () ->
      call ~cols:(bumped cols 0 1) ());
  raises "negative offset" outside (fun () -> call ~rows:(bumped rows 0 (-1)) ());
  (* a plane larger than the source: y < h may reach past its end *)
  raises "plane taller than the source" outside (fun () -> call ~h:2 ());
  raises "negative dimension" "Tensor.gemm_gather: negative dimension"
    (fun () -> call ~m:(-1) ~out:[||] ());
  (* an output offset: the m x n result from out.(off) *)
  let at ~off out =
    T.gemm_gather ~off ~m ~k ~n ~h:1 ~w:n b rows cols a out;
    out
  in
  let placed = at ~off:3 (Array.make (3 + (m * n)) 0.) in
  Alcotest.(check bool) "offset call = matmul" true
    (T.approx_equal ~eps:0. expected
       (T.make [| m; n |] (Array.sub placed 3 (m * n))));
  raises "negative offset" "Tensor.gemm_gather: negative offset" (fun () ->
      at ~off:(-1) (Array.make (m * n) 0.));
  raises "block past the end" short (fun () ->
      at ~off:1 (Array.make (m * n) 0.));
  raises "offset past the end" short (fun () ->
      at ~off:max_int (Array.make (m * n) 0.));
  (* sizes whose products wrap: m*k = m*n = 2^63 = 0 in OCaml ints *)
  raises "m*k and m*n wrap to 0" short (fun () ->
      T.gemm_gather ~m:(1 lsl 61) ~k:4 ~n:4 ~h:1 ~w:4 b (Array.make 12 0)
        (Array.make 12 0) [||] [||]);
  raises "h*w wraps" outside (fun () -> call ~h:(1 lsl 61) ~w:8 ());
  (* an offset of max_int: max off_p + ... + (w-1) wraps to below 0 *)
  raises "row offset max_int" outside (fun () ->
      call ~rows:(bumped rows 3 max_int) ~w:2 ());
  raises "column offset max_int" outside (fun () ->
      call ~cols:(bumped cols 0 max_int) ());
  (* coordinates whose sums or products in the kernel would wrap *)
  raises "row y near max_int" outside (fun () ->
      call ~rows:(bumped rows 1 (max_int / 2)) ());
  raises "column x near min_int" outside (fun () ->
      call ~cols:(bumped cols 2 min_int) ());
  (* an empty image: every element of B is outside it, so nothing of
     the (empty) source is read and each output adds only zero terms *)
  Alcotest.(check (array (float 0.))) "empty image" (Array.make (m * n) 0.)
    (call ~src:[||] ~h:0 ());
  let x = T.zeros [| 2; 0; 5 |] and w = T.randn (Rng.create 5) [| 3; 2; 3; 3 |] in
  Alcotest.(check bool) "conv2d over an empty image = Conv_ref" true
    (T.approx_equal ~eps:0.
       (Conv_ref.conv2d ~pad:2 x ~weight:w ~bias:None)
       (T.unstack
          (T.conv2d ~pad:2 (T.stack [| x |]) ~weight:w ~bias:None)).(0))

(* A batch of no samples has the shape of the batch it would have
   been, with no elements. *)
let test_empty_batch () =
  let rng = Rng.create 6 in
  let w = T.randn rng [| 4; 3; 3; 3 |] and b = Some (T.randn rng [| 4 |]) in
  let x = T.zeros [| 0; 3; 6; 7 |] in
  Alcotest.(check (array int)) "conv2d" [| 0; 4; 3; 4 |]
    (T.shape (T.conv2d ~stride:2 ~pad:1 x ~weight:w ~bias:b));
  let tw = T.randn rng [| 3; 4; 2; 2 |] in
  Alcotest.(check (array int)) "conv2d_transpose" [| 0; 4; 12; 14 |]
    (T.shape (T.conv2d_transpose ~stride:2 x ~weight:tw ~bias:b));
  let gout = T.zeros [| 0; 4; 3; 4 |] in
  Alcotest.(check (array int)) "conv2d_backward_input" [| 0; 3; 6; 7 |]
    (T.shape
       (T.conv2d_backward_input ~stride:2 ~pad:1 ~input_shape:[| 0; 3; 6; 7 |]
          ~weight:w gout));
  Alcotest.(check bool) "conv2d_backward_weight of no samples is zero" true
    (T.approx_equal ~eps:0. (T.zeros [| 4; 3; 3; 3 |])
       (T.conv2d_backward_weight ~stride:2 ~pad:1 ~input:x
          ~weight_shape:[| 4; 3; 3; 3 |] gout));
  Alcotest.(check (array int)) "maxpool2" [| 0; 3; 3; 3 |]
    (T.shape (fst (T.maxpool2 (T.zeros [| 0; 3; 6; 6 |]))))

let test_tensor_empty_and_tiny () =
  let e = T.zeros [| 0 |] in
  Alcotest.(check (float 0.)) "sum of empty" 0. (T.sum e);
  Alcotest.(check (float 0.)) "mean of empty" 0. (T.mean e);
  let one = T.scalar 5. in
  Alcotest.(check (float 0.)) "scalar mean" 5. (T.mean one)

let test_resize_degenerate () =
  let m = T.of_array2 [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let tiny = T.resize_nearest m 1 1 in
  Alcotest.(check (float 0.)) "1x1 resize picks a source pixel" 1.
    (T.get2 tiny 0 0);
  Alcotest.check_raises "zero target"
    (Invalid_argument "Tensor.resize_nearest: empty target") (fun () ->
      ignore (T.resize_nearest m 0 3))

(* ------------------------------------------------------------------ *)
(* Autodiff                                                            *)
(* ------------------------------------------------------------------ *)

let test_value_div_gradcheck () =
  let rng = Rng.create 31 in
  let denom = T.add_scalar 2. (T.sqr (T.randn rng [| 5 |])) in
  Alcotest.(check bool) "div gradient (numerator)" true
    (V.gradient_check
       (fun x -> V.sum (V.div x (V.const denom)))
       (T.randn (Rng.create 32) [| 5 |]));
  let num = T.randn (Rng.create 33) [| 5 |] in
  Alcotest.(check bool) "div gradient (denominator)" true
    (V.gradient_check
       (fun x -> V.sum (V.div (V.const num) (V.add_scalar 3. (V.sqr x))))
       (T.randn (Rng.create 34) [| 5 |]))

let test_value_const_subgraph_untracked () =
  (* a graph of constants collapses: backward through it is a no-op *)
  let c = V.add (V.scalar 1.) (V.scalar 2.) in
  Alcotest.(check bool) "const result" false (V.requires_grad c)

let test_gradient_check_catches_wrong_gradient () =
  (* a deliberately wrong custom gradient must fail the checker *)
  let broken x =
    V.custom
      ~data:(T.map (fun v -> v *. v) (V.data x))
      ~parents:[ x ]
      ~backward:(fun g -> [ Some g ] (* wrong: should be 2x*g *))
  in
  Alcotest.(check bool) "detects wrong backward" false
    (V.gradient_check (fun x -> V.sum (broken x)) (T.of_array1 [| 1.5; -2. |]))

(* ------------------------------------------------------------------ *)
(* Csr                                                                 *)
(* ------------------------------------------------------------------ *)

let test_csr_empty_matrix () =
  let m = Csr.create ~n_rows:3 ~n_cols:3 [] in
  Alcotest.(check int) "nnz" 0 (Csr.nnz m);
  Alcotest.(check (array (float 0.))) "matvec zero" [| 0.; 0.; 0. |]
    (Csr.matvec m [| 1.; 2.; 3. |]);
  (* normalizing an empty graph leaves pure self-loops *)
  let n = Csr.symmetric_normalize m in
  Alcotest.(check (float 1e-9)) "self loop" 1. (Csr.get n 0 0)

let test_csr_matvec_length_check () =
  let m = Csr.identity 3 in
  Alcotest.check_raises "length" (Invalid_argument "Csr.matvec: length mismatch")
    (fun () -> ignore (Csr.matvec m [| 1. |]))

(* ------------------------------------------------------------------ *)
(* Netlist validation negatives                                        *)
(* ------------------------------------------------------------------ *)

let bad_netlist_driver_mismatch () =
  let m = Cl.find "INV_X1" in
  {
    Nl.design = "bad";
    masters = [| m; m |];
    nets =
      [|
        { Nl.net_id = 0; net_name = "n"; driver = Nl.Cell 0;
          sinks = [| Nl.Cell 1 |]; is_clock = false };
      |];
    ios = [||];
    cell_fanin = [| [||]; [| 0 |] |];
    cell_fanout = [| -1 (* should be 0 *); -1 |];
  }

let test_validate_rejects_fanout_mismatch () =
  match Nl.validate (bad_netlist_driver_mismatch ()) with
  | Ok () -> Alcotest.fail "accepted inconsistent fanout"
  | Error _ -> ()

let test_validate_rejects_arity_overflow () =
  let m = Cl.find "INV_X1" in
  (* INV has 1 input; give it 3 fanin nets *)
  let net id driver sinks =
    { Nl.net_id = id; net_name = "n"; driver; sinks; is_clock = false }
  in
  let nl =
    {
      Nl.design = "bad";
      masters = [| m; m; m; m |];
      nets =
        [|
          net 0 (Nl.Cell 0) [| Nl.Cell 3 |];
          net 1 (Nl.Cell 1) [| Nl.Cell 3 |];
          net 2 (Nl.Cell 2) [| Nl.Cell 3 |];
        |];
      ios = [||];
      cell_fanin = [| [||]; [||]; [||]; [| 0; 1; 2 |] |];
      cell_fanout = [| 0; 1; 2; -1 |];
    }
  in
  match Nl.validate nl with
  | Ok () -> Alcotest.fail "accepted arity overflow"
  | Error e ->
      Alcotest.(check bool) "mentions inputs" true
        (String.length e > 0)

let test_levelize_detects_cycle () =
  let m = Cl.find "INV_X1" in
  let net id driver sinks =
    { Nl.net_id = id; net_name = "n"; driver; sinks; is_clock = false }
  in
  (* 0 -> 1 -> 0 combinational loop *)
  let nl =
    {
      Nl.design = "cyclic";
      masters = [| m; m |];
      nets =
        [| net 0 (Nl.Cell 0) [| Nl.Cell 1 |]; net 1 (Nl.Cell 1) [| Nl.Cell 0 |] |];
      ios = [||];
      cell_fanin = [| [| 1 |]; [| 0 |] |];
      cell_fanout = [| 0; 1 |];
    }
  in
  Alcotest.(check bool) "cycle detected" true (Nl.levelize nl = None);
  Alcotest.check_raises "logic_depth raises"
    (Invalid_argument "Netlist.logic_depth: combinational cycle") (fun () ->
      ignore (Nl.logic_depth nl))

(* ------------------------------------------------------------------ *)
(* Floorplan / placement edge cases                                    *)
(* ------------------------------------------------------------------ *)

let test_floorplan_rejects_bad_utilization () =
  let nl = Gen.generate ~scale:0.01 ~seed:1 (Gen.profile "DMA") in
  Alcotest.check_raises "util 0"
    (Invalid_argument "Floorplan.create: utilization must be in (0, 1]")
    (fun () -> ignore (Fp.create ~utilization:0. nl))

let test_io_position_requires_ios () =
  let nl = Gen.generate ~scale:0.01 ~seed:1 (Gen.profile "DMA") in
  let fp = Fp.create nl in
  Alcotest.check_raises "no ios"
    (Invalid_argument "Floorplan.io_position: no IOs") (fun () ->
      ignore (Fp.io_position fp ~n_ios:0 0))

(* ------------------------------------------------------------------ *)
(* STA edge cases                                                      *)
(* ------------------------------------------------------------------ *)

let test_sta_pure_combinational_design () =
  (* IO -> INV -> IO : no flip-flops at all *)
  let m = Cl.find "INV_X2" in
  let net id driver sinks is_clock =
    { Nl.net_id = id; net_name = "n"; driver; sinks; is_clock }
  in
  let nl =
    {
      Nl.design = "comb";
      masters = [| m |];
      nets =
        [|
          net 0 (Nl.Io 0) [| Nl.Cell 0 |] false;
          net 1 (Nl.Cell 0) [| Nl.Io 1 |] false;
        |];
      ios =
        [|
          { Nl.io_id = 0; io_name = "in"; dir = Nl.In };
          { Nl.io_id = 1; io_name = "out"; dir = Nl.Out };
        |];
      cell_fanin = [| [| 0 |] |];
      cell_fanout = [| 1 |];
    }
  in
  let cfg = Sta.default_config ~clock_period_ps:1000. in
  let t =
    Sta.analyze cfg nl ~net_length:[| 2.; 3. |] ~net_is_3d:(fun _ -> false)
  in
  Alcotest.(check bool) "finite critical path" true
    (Float.is_finite t.Sta.critical_delay && t.Sta.critical_delay > 0.);
  Alcotest.(check int) "meets loose clock" 0 t.Sta.n_violations

let test_sta_3d_nets_pay_via_delay () =
  let m = Cl.find "INV_X2" in
  let net id driver sinks =
    { Nl.net_id = id; net_name = "n"; driver; sinks; is_clock = false }
  in
  let nl =
    {
      Nl.design = "via";
      masters = [| m |];
      nets =
        [|
          net 0 (Nl.Io 0) [| Nl.Cell 0 |];
          net 1 (Nl.Cell 0) [| Nl.Io 1 |];
        |];
      ios =
        [|
          { Nl.io_id = 0; io_name = "in"; dir = Nl.In };
          { Nl.io_id = 1; io_name = "out"; dir = Nl.Out };
        |];
      cell_fanin = [| [| 0 |] |];
      cell_fanout = [| 1 |];
    }
  in
  let cfg = Sta.default_config ~clock_period_ps:1000. in
  let planar =
    Sta.analyze cfg nl ~net_length:[| 2.; 2. |] ~net_is_3d:(fun _ -> false)
  in
  let stacked =
    Sta.analyze cfg nl ~net_length:[| 2.; 2. |] ~net_is_3d:(fun _ -> true)
  in
  Alcotest.(check bool) "via delay charged" true
    (stacked.Sta.critical_delay > planar.Sta.critical_delay)

(* ------------------------------------------------------------------ *)
(* Placement relief sanity                                             *)
(* ------------------------------------------------------------------ *)

let test_relieve_hot_nets_sane () =
  let nl = Gen.generate ~scale:0.02 ~seed:5 (Gen.profile "AES") in
  let fp = Fp.create nl in
  let p =
    Dco3d_place.Placer.global_place ~seed:1 ~params:Dco3d_place.Params.default
      nl fp
  in
  let before = Dco3d_place.Placement.copy p in
  let moved = Dco3d_place.Placer.relieve_hot_nets ~quantile:0.9 p in
  Alcotest.(check bool) "non-negative move count" true (moved >= 0);
  (* moves are bounded: one GCell pitch plus clamping *)
  let max_d = Dco3d_place.Placement.max_displacement_from p before in
  let pitch = Fp.gcell_w fp +. Fp.gcell_h fp in
  Alcotest.(check bool)
    (Printf.sprintf "bounded displacement %.3f <= %.3f" max_d pitch)
    true (max_d <= pitch +. 1e-6)

let suites =
  [
    ( "edges.tensor",
      [
        Alcotest.test_case "bad indices" `Quick test_tensor_bad_indices;
        Alcotest.test_case "shape mismatches" `Quick test_tensor_shape_mismatches;
        Alcotest.test_case "approx_equal rejects NaN" `Quick
          test_tensor_approx_equal_nan;
        Alcotest.test_case "conv errors" `Quick test_tensor_conv_errors;
        Alcotest.test_case "malformed conv arguments" `Quick
          test_tensor_conv_malformed;
        Alcotest.test_case "gemm_gather bounds" `Quick test_gemm_gather_bounds;
        Alcotest.test_case "empty and tiny" `Quick test_tensor_empty_and_tiny;
        Alcotest.test_case "empty batch" `Quick test_empty_batch;
        Alcotest.test_case "resize degenerate" `Quick test_resize_degenerate;
      ] );
    ( "edges.autodiff",
      [
        Alcotest.test_case "div gradients" `Quick test_value_div_gradcheck;
        Alcotest.test_case "const subgraph" `Quick test_value_const_subgraph_untracked;
        Alcotest.test_case "checker catches bad backward" `Quick test_gradient_check_catches_wrong_gradient;
      ] );
    ( "edges.graph",
      [
        Alcotest.test_case "empty matrix" `Quick test_csr_empty_matrix;
        Alcotest.test_case "matvec length" `Quick test_csr_matvec_length_check;
      ] );
    ( "edges.netlist",
      [
        Alcotest.test_case "fanout mismatch" `Quick test_validate_rejects_fanout_mismatch;
        Alcotest.test_case "arity overflow" `Quick test_validate_rejects_arity_overflow;
        Alcotest.test_case "combinational cycle" `Quick test_levelize_detects_cycle;
      ] );
    ( "edges.place",
      [
        Alcotest.test_case "bad utilization" `Quick test_floorplan_rejects_bad_utilization;
        Alcotest.test_case "io position requires ios" `Quick test_io_position_requires_ios;
        Alcotest.test_case "relieve_hot_nets sane" `Quick test_relieve_hot_nets_sane;
      ] );
    ( "edges.sta",
      [
        Alcotest.test_case "pure combinational" `Quick test_sta_pure_combinational_design;
        Alcotest.test_case "3D nets pay via delay" `Quick test_sta_3d_nets_pay_via_delay;
      ] );
  ]
