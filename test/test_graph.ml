(* Tests for CSR sparse matrices and GCN layers. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module V = Dco3d_autodiff.Value
module Csr = Dco3d_graph.Csr
module Gcn = Dco3d_graph.Gcn

let test_create_and_get () =
  let m = Csr.create ~n_rows:3 ~n_cols:4 [ (0, 1, 2.); (2, 3, 5.); (1, 0, -1.) ] in
  Alcotest.(check int) "nnz" 3 (Csr.nnz m);
  Alcotest.(check (float 0.)) "get (0,1)" 2. (Csr.get m 0 1);
  Alcotest.(check (float 0.)) "get (2,3)" 5. (Csr.get m 2 3);
  Alcotest.(check (float 0.)) "absent" 0. (Csr.get m 0 0)

let test_duplicates_sum () =
  let m = Csr.create ~n_rows:2 ~n_cols:2 [ (0, 0, 1.); (0, 0, 2.5) ] in
  Alcotest.(check int) "merged" 1 (Csr.nnz m);
  Alcotest.(check (float 0.)) "summed" 3.5 (Csr.get m 0 0)

let test_rejects_out_of_range () =
  Alcotest.check_raises "bad index"
    (Invalid_argument "Csr.create: index out of range") (fun () ->
      ignore (Csr.create ~n_rows:2 ~n_cols:2 [ (2, 0, 1.) ]))

let test_identity_matvec () =
  let m = Csr.identity 4 in
  let x = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (array (float 0.))) "I x = x" x (Csr.matvec m x)

let test_matvec_known () =
  (* [[1 2]; [0 3]] * [4; 5] = [14; 15] *)
  let m = Csr.create ~n_rows:2 ~n_cols:2 [ (0, 0, 1.); (0, 1, 2.); (1, 1, 3.) ] in
  Alcotest.(check (array (float 0.))) "matvec" [| 14.; 15. |]
    (Csr.matvec m [| 4.; 5. |])

let random_csr seed n_rows n_cols density =
  let rng = Rng.create seed in
  let coo = ref [] in
  for i = 0 to n_rows - 1 do
    for j = 0 to n_cols - 1 do
      if Rng.uniform rng < density then
        coo := (i, j, Rng.gaussian rng) :: !coo
    done
  done;
  Csr.create ~n_rows ~n_cols !coo

let to_dense m =
  T.init [| m.Csr.n_rows; m.Csr.n_cols |] (fun i -> Csr.get m i.(0) i.(1))

let prop_transpose_involutive =
  QCheck.Test.make ~name:"transpose is involutive" ~count:30
    (QCheck.int_bound 10_000) (fun seed ->
      let m = random_csr seed 7 5 0.3 in
      let tt = Csr.transpose (Csr.transpose m) in
      T.approx_equal (to_dense m) (to_dense tt))

let prop_spmm_matches_dense =
  QCheck.Test.make ~name:"spmm matches dense matmul" ~count:30
    (QCheck.int_bound 10_000) (fun seed ->
      let m = random_csr seed 6 8 0.4 in
      let x = T.randn (Rng.create (seed + 1)) [| 8; 3 |] in
      T.approx_equal ~eps:1e-9 (Csr.spmm m x) (T.matmul (to_dense m) x))

(* Bit patterns, so the comparison is exact (eps = 0) and tells -0.
   from 0. *)
let bits t = Array.map Int64.bits_of_float t.T.data

(* A random CSR with explicit zeros (stored entries of value 0.) and
   empty rows: every row is empty with probability 1/4, every stored
   entry is 0. with probability 1/5. *)
let random_csr_with_holes rng n_rows n_cols =
  let coo = ref [] in
  for i = 0 to n_rows - 1 do
    if Rng.int rng 4 > 0 then
      for j = 0 to n_cols - 1 do
        if Rng.uniform rng < 0.35 then
          let v = if Rng.int rng 5 = 0 then 0. else Rng.gaussian rng in
          coo := (i, j, v) :: !coo
      done
  done;
  Csr.create ~n_rows ~n_cols !coo

(* The plain dense loop the sparse product must reproduce bit for bit:
   y(i, c) = sum over j = 0 .. n_cols-1 of a(i, j) x(j, c), in j order.
   Absent entries and explicit zeros add +-0. to a running sum that
   starts at +0., which leaves it unchanged, so skipping them is
   exact. *)
let dense_spmm m x =
  let f = T.dim x 1 in
  let y = T.zeros [| m.Csr.n_rows; f |] in
  for i = 0 to m.Csr.n_rows - 1 do
    for c = 0 to f - 1 do
      let acc = ref 0. in
      for j = 0 to m.Csr.n_cols - 1 do
        acc := !acc +. (Csr.get m i j *. T.get2 x j c)
      done;
      T.set2 y i c !acc
    done
  done;
  y

let prop_spmm_exact_dense_loop =
  QCheck.Test.make ~name:"spmm == dense loop (eps 0, zeros, empty rows)"
    ~count:40 (QCheck.int_bound 10_000) (fun seed ->
      let rng = Rng.create seed in
      let n_rows = 1 + Rng.int rng 12 and n_cols = 1 + Rng.int rng 12 in
      let m = random_csr_with_holes rng n_rows n_cols in
      List.for_all
        (fun f ->
          let x = T.randn rng [| n_cols; f |] in
          bits (Csr.spmm m x) = bits (dense_spmm m x))
        [ 1; 3; 32 ])

(* The flat kernel allocates its output and nothing else.  The output's
   data (16,384 floats) goes straight to the major heap, so the minor
   heap only sees the result's record and shape arrays; boxing one
   float per multiply-add would add about 150k words here. *)
let test_spmm_allocation_free () =
  let m = random_csr 0x5A11 512 512 0.02 in
  let x = T.randn (Rng.create 0x5A12) [| 512; 32 |] in
  ignore (Csr.spmm m x);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Csr.spmm m x));
  let words = Gc.minor_words () -. w0 in
  if words > 16. then
    Alcotest.failf "Csr.spmm allocates %.0f minor words besides its output"
      words

let test_row_sums () =
  let m = Csr.create ~n_rows:2 ~n_cols:3 [ (0, 0, 1.); (0, 2, 2.); (1, 1, 4.) ] in
  Alcotest.(check (array (float 0.))) "row sums" [| 3.; 4. |] (Csr.row_sums m)

let test_scale_rows_cols () =
  let m = Csr.create ~n_rows:2 ~n_cols:2 [ (0, 0, 1.); (1, 1, 2.) ] in
  let r = Csr.scale_rows m [| 2.; 3. |] in
  Alcotest.(check (float 0.)) "row scaled" 2. (Csr.get r 0 0);
  Alcotest.(check (float 0.)) "row scaled 2" 6. (Csr.get r 1 1);
  let c = Csr.scale_cols m [| 5.; 7. |] in
  Alcotest.(check (float 0.)) "col scaled" 5. (Csr.get c 0 0);
  Alcotest.(check (float 0.)) "col scaled 2" 14. (Csr.get c 1 1)

let test_symmetric_normalize () =
  (* path graph 0-1-2: after A+I, degrees are [2;3;2]. *)
  let a =
    Csr.create ~n_rows:3 ~n_cols:3
      [ (0, 1, 1.); (1, 0, 1.); (1, 2, 1.); (2, 1, 1.) ]
  in
  let n = Csr.symmetric_normalize a in
  Alcotest.(check (float 1e-9)) "diag 0" 0.5 (Csr.get n 0 0);
  Alcotest.(check (float 1e-9)) "diag 1" (1. /. 3.) (Csr.get n 1 1);
  Alcotest.(check (float 1e-9)) "off 01" (1. /. sqrt 6.) (Csr.get n 0 1);
  (* symmetry *)
  Alcotest.(check (float 1e-12)) "symmetric" (Csr.get n 0 1) (Csr.get n 1 0)

let prop_normalized_rows_bounded =
  QCheck.Test.make ~name:"normalized operator has spectral-safe entries"
    ~count:20 (QCheck.int_bound 10_000) (fun seed ->
      let rng = Rng.create seed in
      let n = 5 + Rng.int rng 10 in
      (* random symmetric 0/1 adjacency *)
      let coo = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Rng.uniform rng < 0.3 then begin
            coo := (i, j, 1.) :: (j, i, 1.) :: !coo
          end
        done
      done;
      let norm = Csr.symmetric_normalize (Csr.create ~n_rows:n ~n_cols:n !coo) in
      let ok = ref true in
      Csr.iter norm (fun _ _ v -> if v < 0. || v > 1. +. 1e-12 then ok := false);
      !ok)

(* ------------------------------------------------------------------ *)
(* GCN                                                                 *)
(* ------------------------------------------------------------------ *)

let test_spmm_gradcheck () =
  let m = random_csr 77 5 5 0.4 in
  Alcotest.(check bool) "spmm gradient" true
    (V.gradient_check
       (fun x -> V.sum (V.sqr (Gcn.spmm (Gcn.graph m) x)))
       (T.randn (Rng.create 78) [| 5; 3 |]))

(* The cached transpose is the real one: the same entries as
   [Csr.transpose adj], bit for bit. *)
let test_graph_caches_transpose () =
  let m = random_csr 91 7 5 0.4 in
  let g = Gcn.graph m in
  let t = Csr.transpose m in
  Alcotest.(check bool) "adj kept" true (g.Gcn.adj == m);
  Alcotest.(check (array int)) "row_ptr" t.Csr.row_ptr g.Gcn.adj_t.Csr.row_ptr;
  Alcotest.(check (array int)) "col_idx" t.Csr.col_idx g.Gcn.adj_t.Csr.col_idx;
  Alcotest.(check bool) "values" true
    (Array.map Int64.bits_of_float t.Csr.values
    = Array.map Int64.bits_of_float g.Gcn.adj_t.Csr.values)

(* Every other GCN test runs on a symmetric_normalize output, which is
   symmetric up to rounding, so a backward multiplying by [adj] instead
   of its transpose would pass them.  On a random non-symmetric operator
   it cannot. *)
let test_gcn_gradcheck_nonsymmetric () =
  let adj = random_csr 93 6 6 0.45 in
  Alcotest.(check bool) "operator is not symmetric" false
    (T.approx_equal ~eps:1e-6 (to_dense adj) (T.transpose2 (to_dense adj)));
  let layers = Gcn.stack (Rng.create 94) ~adj ~dims:[ 3; 4; 2 ] () in
  Alcotest.(check bool) "stack input gradient" true
    (V.gradient_check
       (fun x -> V.sum (V.sqr (Gcn.forward_stack layers x)))
       (T.randn (Rng.create 95) [| 6; 3 |]));
  let l = Gcn.layer (Rng.create 96) ~adj ~in_dim:3 ~out_dim:3 () in
  Alcotest.(check bool) "layer input gradient" true
    (V.gradient_check
       (fun x -> V.sum (V.sqr (Gcn.forward l x)))
       (T.randn (Rng.create 97) [| 6; 3 |]))

let test_gcn_layer_shape () =
  let adj = Csr.symmetric_normalize (Csr.identity 6) in
  let l = Gcn.layer (Rng.create 1) ~adj ~in_dim:4 ~out_dim:2 () in
  let y = Gcn.forward l (V.const (T.zeros [| 6; 4 |])) in
  Alcotest.(check (array int)) "gcn shape" [| 6; 2 |] (V.shape y)

let test_gcn_isolated_node_untouched () =
  (* On an identity graph (self-loops only), the GCN reduces to a
     per-node linear layer: two nodes with equal features must map to
     equal outputs. *)
  let adj = Csr.symmetric_normalize (Csr.create ~n_rows:3 ~n_cols:3 []) in
  let l = Gcn.layer (Rng.create 2) ~adj ~in_dim:2 ~out_dim:2 () in
  let x = T.of_array2 [| [| 1.; 2. |]; [| 1.; 2. |]; [| 0.; 0. |] |] in
  let y = V.data (Gcn.forward l (V.const x)) in
  Alcotest.(check (float 1e-12)) "equal rows equal outputs"
    (T.get2 y 0 0) (T.get2 y 1 0)

let test_gcn_propagates_neighbours () =
  (* On a connected pair, node 0's output must depend on node 1's
     features. *)
  let adj =
    Csr.symmetric_normalize
      (Csr.create ~n_rows:2 ~n_cols:2 [ (0, 1, 1.); (1, 0, 1.) ])
  in
  let l = Gcn.layer (Rng.create 3) ~adj ~in_dim:2 ~out_dim:2 () in
  let x1 = T.of_array2 [| [| 1.; 0. |]; [| 0.; 0. |] |] in
  let x2 = T.of_array2 [| [| 1.; 0. |]; [| 5.; 5. |] |] in
  let y1 = V.data (Gcn.forward l (V.const x1)) in
  let y2 = V.data (Gcn.forward l (V.const x2)) in
  Alcotest.(check bool) "neighbour influence" false
    (abs_float (T.get2 y1 0 0 -. T.get2 y2 0 0) < 1e-12)

let test_gcn_stack () =
  let adj = Csr.symmetric_normalize (Csr.identity 4) in
  let layers = Gcn.stack (Rng.create 4) ~adj ~dims:[ 8; 16; 16; 3 ] () in
  Alcotest.(check int) "three layers" 3 (List.length layers);
  let y = Gcn.forward_stack layers (V.const (T.zeros [| 4; 8 |])) in
  Alcotest.(check (array int)) "stack output" [| 4; 3 |] (V.shape y);
  let n_params = List.length (Gcn.stack_params layers) in
  Alcotest.(check int) "w+b per layer" 6 n_params

let test_gcn_stack_trains () =
  (* A 2-layer GCN on a 4-cycle learns to regress a fixed target. *)
  let adj =
    Csr.symmetric_normalize
      (Csr.create ~n_rows:4 ~n_cols:4
         [ (0, 1, 1.); (1, 0, 1.); (1, 2, 1.); (2, 1, 1.);
           (2, 3, 1.); (3, 2, 1.); (3, 0, 1.); (0, 3, 1.) ])
  in
  let layers = Gcn.stack (Rng.create 5) ~adj ~dims:[ 3; 8; 1 ] () in
  let opt =
    Dco3d_autodiff.Optimizer.adam ~lr:0.05 (Gcn.stack_params layers)
  in
  let x = T.randn (Rng.create 6) [| 4; 3 |] in
  let target = T.of_array2 [| [| 1. |]; [| -1. |]; [| 1. |]; [| -1. |] |] in
  let step () =
    let loss = V.mse (Gcn.forward_stack layers (V.const x)) target in
    let lv = T.get_flat (V.data loss) 0 in
    V.backward loss;
    Dco3d_autodiff.Optimizer.step opt;
    lv
  in
  let first = step () in
  let last = ref first in
  for _ = 1 to 300 do
    last := step ()
  done;
  Alcotest.(check bool) "gcn trains" true (!last < first /. 10.)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "graph.csr",
      [
        Alcotest.test_case "create/get" `Quick test_create_and_get;
        Alcotest.test_case "duplicates sum" `Quick test_duplicates_sum;
        Alcotest.test_case "rejects out-of-range" `Quick test_rejects_out_of_range;
        Alcotest.test_case "identity matvec" `Quick test_identity_matvec;
        Alcotest.test_case "matvec known" `Quick test_matvec_known;
        Alcotest.test_case "row sums" `Quick test_row_sums;
        Alcotest.test_case "scale rows/cols" `Quick test_scale_rows_cols;
        Alcotest.test_case "symmetric normalize (path graph)" `Quick test_symmetric_normalize;
        qtest prop_transpose_involutive;
        qtest prop_spmm_matches_dense;
        qtest prop_spmm_exact_dense_loop;
        Alcotest.test_case "spmm allocation-free" `Quick test_spmm_allocation_free;
        qtest prop_normalized_rows_bounded;
      ] );
    ( "graph.gcn",
      [
        Alcotest.test_case "spmm gradcheck" `Quick test_spmm_gradcheck;
        Alcotest.test_case "graph caches the transpose" `Quick test_graph_caches_transpose;
        Alcotest.test_case "gradcheck, non-symmetric adj" `Quick
          test_gcn_gradcheck_nonsymmetric;
        Alcotest.test_case "layer shape" `Quick test_gcn_layer_shape;
        Alcotest.test_case "identity graph = per-node linear" `Quick test_gcn_isolated_node_untouched;
        Alcotest.test_case "neighbour propagation" `Quick test_gcn_propagates_neighbours;
        Alcotest.test_case "stack structure" `Quick test_gcn_stack;
        Alcotest.test_case "stack trains" `Slow test_gcn_stack_trains;
      ] );
  ]
