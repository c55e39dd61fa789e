(* Tests for the domain-pool runtime and the determinism contract of
   the parallelized kernels: every pooled path must be bit-identical to
   the sequential (DCO3D_JOBS=1) path. *)

module Pool = Dco3d_parallel.Pool
module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Gen = Dco3d_netlist.Generator
module Fp = Dco3d_place.Floorplan
module Placer = Dco3d_place.Placer
module Rudy = Dco3d_congestion.Rudy

(* Force a real pool even on single-core CI hosts: [~exact:true]
   bypasses the hardware clamp, so [n] domains genuinely run and the
   tests exercise true cross-domain schedules. *)
let with_jobs n f =
  Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

let exact_tensor =
  Alcotest.testable T.pp (fun a b -> T.approx_equal ~eps:0. a b)

(* ------------------------------------------------------------------ *)
(* Pool primitives                                                     *)
(* ------------------------------------------------------------------ *)

let test_empty_range () =
  with_jobs 4 (fun () ->
      let hits = Atomic.make 0 in
      Pool.parallel_for 5 5 (fun _ -> Atomic.incr hits);
      Pool.parallel_for 7 3 (fun _ -> Atomic.incr hits);
      Alcotest.(check int) "no body calls" 0 (Atomic.get hits);
      let r =
        Pool.parallel_for_reduce ~init:42 ~combine:( + ) 9 9 (fun _ _ -> 1)
      in
      Alcotest.(check int) "empty reduce is init" 42 r)

let test_range_smaller_than_chunk () =
  with_jobs 4 (fun () ->
      let seen = Array.make 3 0 in
      Pool.parallel_for ~chunk:64 0 3 (fun i -> seen.(i) <- seen.(i) + 1);
      Alcotest.(check (array int)) "each index once" [| 1; 1; 1 |] seen)

let test_odd_sizes () =
  with_jobs 3 (fun () ->
      let n = 1023 in
      let seen = Array.make n 0 in
      Pool.parallel_for ~chunk:37 0 n (fun i -> seen.(i) <- seen.(i) + 1);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (( = ) 1) seen))

let test_reduce_sum_and_order () =
  with_jobs 4 (fun () ->
      let n = 10_000 in
      let total =
        Pool.parallel_for_reduce ~chunk:97 ~init:0 ~combine:( + ) 0 n
          (fun lo hi ->
            let s = ref 0 in
            for i = lo to hi - 1 do
              s := !s + i
            done;
            !s)
      in
      Alcotest.(check int) "sum 0..n-1" (n * (n - 1) / 2) total;
      (* chunk results must be combined in ascending range order *)
      let spans =
        Pool.parallel_for_reduce ~chunk:37 ~init:[]
          ~combine:(fun acc span -> span :: acc)
          0 500
          (fun lo hi -> (lo, hi))
        |> List.rev
      in
      let rec contiguous expected = function
        | [] -> expected = 500
        | (lo, hi) :: rest -> lo = expected && hi > lo && contiguous hi rest
      in
      Alcotest.(check bool) "partials in index order" true (contiguous 0 spans))

let test_nested_calls () =
  with_jobs 4 (fun () ->
      let grid = Array.make_matrix 4 100 0 in
      Pool.parallel_for ~chunk:1 0 4 (fun i ->
          Pool.parallel_for ~chunk:8 0 100 (fun j ->
              grid.(i).(j) <- grid.(i).(j) + 1));
      Alcotest.(check bool) "all cells touched once" true
        (Array.for_all (Array.for_all (( = ) 1)) grid))

let test_tabulate_and_map_array () =
  with_jobs 4 (fun () ->
      Alcotest.(check (array int))
        "tabulate"
        (Array.init 1001 (fun i -> i * i))
        (Pool.tabulate ~chunk:13 1001 (fun i -> i * i));
      Alcotest.(check (array int)) "tabulate empty" [||]
        (Pool.tabulate 0 (fun i -> i));
      let a = Array.init 257 (fun i -> i) in
      Alcotest.(check (array int))
        "map_array" (Array.map succ a)
        (Pool.map_array succ a))

let test_exception_propagates () =
  with_jobs 4 (fun () ->
      Alcotest.check_raises "body exception reaches caller" (Failure "boom")
        (fun () ->
          Pool.parallel_for ~chunk:1 0 64 (fun i ->
              if i = 13 then failwith "boom")))

let test_set_jobs () =
  Pool.set_jobs 3;
  Alcotest.(check int) "jobs reflects set_jobs" 3 (Pool.jobs ());
  Pool.set_jobs 1;
  Alcotest.(check int) "back to one" 1 (Pool.jobs ());
  Alcotest.check_raises "rejects zero"
    (Invalid_argument "Pool.set_jobs: need at least one job") (fun () ->
      Pool.set_jobs 0)

let test_effective_jobs_clamp () =
  let hw = max 1 (Domain.recommended_domain_count ()) in
  Pool.set_jobs (hw + 5);
  Alcotest.(check int) "requested is kept" (hw + 5) (Pool.jobs ());
  Alcotest.(check int) "clamped to hardware" hw (Pool.effective_jobs ());
  Pool.set_jobs ~exact:true (hw + 5);
  Alcotest.(check int) "exact bypasses the clamp" (hw + 5)
    (Pool.effective_jobs ());
  Pool.set_jobs 1

let test_exception_in_reduce () =
  with_jobs 4 (fun () ->
      Alcotest.check_raises "reduce body exception reaches caller"
        (Failure "kaboom") (fun () ->
          ignore
            (Pool.parallel_for_reduce ~chunk:1 ~init:0 ~combine:( + ) 0 32
               (fun lo _ -> if lo = 7 then failwith "kaboom" else lo)));
      (* the pool must still be usable after a failed region *)
      let ok =
        Pool.parallel_for_reduce ~chunk:1 ~init:0 ~combine:( + ) 0 32
          (fun lo _ -> lo)
      in
      Alcotest.(check int) "pool survives the failure" (31 * 32 / 2) ok)

(* ------------------------------------------------------------------ *)
(* Per-domain scratch                                                  *)
(* ------------------------------------------------------------------ *)

let test_scratch_reuse_sequential () =
  let created = ref 0 in
  let sp =
    Pool.scratch_pool (fun () ->
        incr created;
        Bytes.create 8)
  in
  (* sequential borrows reuse one value: put-back precedes the next take *)
  for _ = 1 to 10 do
    Pool.with_scratch sp (fun b -> Bytes.set b 0 'x')
  done;
  Alcotest.(check int) "one scratch for sequential use" 1 !created

let test_scratch_bounded_creation () =
  with_jobs 4 (fun () ->
      let created = Atomic.make 0 in
      let sp =
        Pool.scratch_pool (fun () ->
            Atomic.incr created;
            ref 0)
      in
      Pool.parallel_for ~chunk:1 0 64 (fun _ ->
          Pool.with_scratch sp (fun r -> incr r));
      let n = Atomic.get created in
      Alcotest.(check bool)
        (Printf.sprintf "1 <= %d <= effective jobs" n)
        true
        (n >= 1 && n <= Pool.effective_jobs ()))

let test_scratch_returned_on_exception () =
  let created = ref 0 in
  let sp =
    Pool.scratch_pool (fun () ->
        incr created;
        ref 0)
  in
  (try Pool.with_scratch sp (fun _ -> failwith "boom") with Failure _ -> ());
  Pool.with_scratch sp (fun r -> incr r);
  Alcotest.(check int) "scratch came back after the exception" 1 !created

(* ------------------------------------------------------------------ *)
(* Parallel kernels are bit-identical to sequential                    *)
(* ------------------------------------------------------------------ *)

(* Sizes are above the tensor layer's parallelism threshold so the
   pooled path really runs; randomized values catch order-of-accumulation
   bugs that structured inputs would mask. *)

let check_par_eq_seq name f =
  let seq = ref None in
  Pool.set_jobs 1;
  seq := Some (f ());
  let par = with_jobs 4 f in
  Alcotest.check exact_tensor name (Option.get !seq) par

let test_matmul_par_eq_seq () =
  let rng = Rng.create 21 in
  let a = T.randn rng [| 61; 67 |] and b = T.randn rng [| 67; 71 |] in
  check_par_eq_seq "matmul 61x67x71" (fun () -> T.matmul a b);
  let a = T.randn rng [| 64; 64 |] and b = T.randn rng [| 64; 64 |] in
  check_par_eq_seq "matmul 64^3" (fun () -> T.matmul a b)

let test_matvec_par_eq_seq () =
  let rng = Rng.create 22 in
  let a = T.randn rng [| 300; 301 |] and x = T.randn rng [| 301 |] in
  check_par_eq_seq "matvec" (fun () -> T.matvec a x)

let test_conv2d_par_eq_seq () =
  let rng = Rng.create 23 in
  let x = T.randn rng [| 1; 3; 26; 24 |] in
  let w = T.randn rng [| 5; 3; 3; 3 |] in
  let b = T.randn rng [| 5 |] in
  check_par_eq_seq "conv2d" (fun () ->
      T.conv2d ~pad:1 x ~weight:w ~bias:(Some b));
  check_par_eq_seq "conv2d stride 2" (fun () ->
      T.conv2d ~stride:2 ~pad:1 x ~weight:w ~bias:None)

let test_conv2d_backwards_par_eq_seq () =
  let rng = Rng.create 24 in
  (* two samples: the weight gradient adds one GEMM per sample *)
  let x = T.randn rng [| 2; 3; 26; 24 |] in
  let w = T.randn rng [| 5; 3; 3; 3 |] in
  let y = T.conv2d ~pad:1 x ~weight:w ~bias:None in
  let gout = T.randn rng (T.shape y) in
  check_par_eq_seq "backward input" (fun () ->
      T.conv2d_backward_input ~pad:1 ~input_shape:(T.shape x) ~weight:w gout);
  check_par_eq_seq "backward weight" (fun () ->
      T.conv2d_backward_weight ~pad:1 ~input:x ~weight_shape:(T.shape w) gout)

let test_conv2d_transpose_par_eq_seq () =
  let rng = Rng.create 25 in
  let x = T.randn rng [| 1; 6; 17; 19 |] in
  let w = T.randn rng [| 6; 4; 4; 4 |] in
  let b = T.randn rng [| 4 |] in
  check_par_eq_seq "conv2d_transpose" (fun () ->
      T.conv2d_transpose ~stride:2 ~pad:1 x ~weight:w ~bias:(Some b))

let test_rudy_par_eq_seq () =
  let nl = Gen.generate ~scale:0.02 ~seed:5 (Gen.profile "DMA") in
  let fp = Fp.create nl in
  let p = Placer.global_place ~seed:1 ~params:Dco3d_place.Params.default nl fp in
  check_par_eq_seq "rudy_map" (fun () ->
      Rudy.rudy_map p ~tier:0 ~kind:Rudy.All ~nx:48 ~ny:48);
  check_par_eq_seq "pin_rudy_map" (fun () ->
      Rudy.pin_rudy_map p ~tier:0 ~kind:Rudy.Two_d ~nx:48 ~ny:48)

let suites =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "empty range" `Quick test_empty_range;
        Alcotest.test_case "range < chunk" `Quick test_range_smaller_than_chunk;
        Alcotest.test_case "odd sizes" `Quick test_odd_sizes;
        Alcotest.test_case "reduce sum + order" `Quick test_reduce_sum_and_order;
        Alcotest.test_case "nested calls" `Quick test_nested_calls;
        Alcotest.test_case "tabulate / map_array" `Quick test_tabulate_and_map_array;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "exception in reduce" `Quick test_exception_in_reduce;
        Alcotest.test_case "set_jobs" `Quick test_set_jobs;
        Alcotest.test_case "effective_jobs clamp" `Quick test_effective_jobs_clamp;
        Alcotest.test_case "scratch reuse (sequential)" `Quick test_scratch_reuse_sequential;
        Alcotest.test_case "scratch bounded creation" `Quick test_scratch_bounded_creation;
        Alcotest.test_case "scratch returned on exception" `Quick test_scratch_returned_on_exception;
      ] );
    ( "parallel.kernels",
      [
        Alcotest.test_case "matmul" `Quick test_matmul_par_eq_seq;
        Alcotest.test_case "matvec" `Quick test_matvec_par_eq_seq;
        Alcotest.test_case "conv2d" `Quick test_conv2d_par_eq_seq;
        Alcotest.test_case "conv2d backwards" `Quick test_conv2d_backwards_par_eq_seq;
        Alcotest.test_case "conv2d_transpose" `Quick test_conv2d_transpose_par_eq_seq;
        Alcotest.test_case "rudy" `Quick test_rudy_par_eq_seq;
      ] );
  ]
