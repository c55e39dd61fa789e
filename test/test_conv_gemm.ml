(* Property tests for the im2col/GEMM convolution lowerings.

   The contract under test is strict bit-identity: for EVERY shape,
   stride, and padding — including degenerate ones (pad larger than the
   kernel, 1x1 inputs, stride-2 transposed convolutions, shapes of a
   few multiply-adds and shapes large enough to run pooled) — each
   conv entry must produce exactly the floats the plain loop nests of
   [Conv_ref] produce, at DCO3D_JOBS=1 and on a real multi-domain
   pool.  This is
   the property that keeps BENCH_kernels.digest stable across kernel
   changes, so it is checked with [eps = 0.], never a tolerance. *)

module Obs = Dco3d_obs.Obs
module Pool = Dco3d_parallel.Pool
module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng

let exact_tensor =
  Alcotest.testable T.pp (fun a b -> T.approx_equal ~eps:0. a b)

let with_exact_jobs n f =
  Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

(* Run [check] sequentially and on a genuine 4-domain pool (the exact
   flag bypasses the hardware clamp on single-core CI hosts). *)
let on_both_schedules check =
  check "jobs=1";
  with_exact_jobs 4 (fun () -> check "jobs=4")

type conv_case = {
  ci : int;
  co : int;
  h : int;
  w : int;
  kh : int;
  kw : int;
  stride : int;
  pad : int;
  with_bias : bool;
}

let case_name tag c =
  Printf.sprintf "%s %dx%dx%d w=%dx%dx%dx%d s=%d p=%d%s" tag c.ci c.h c.w
    c.co c.ci c.kh c.kw c.stride c.pad
    (if c.with_bias then " bias" else "")

(* Random but reproducible case stream; candidates that would produce an
   empty output are discarded before they reach the kernels. *)
let random_cases rng ~n ~valid =
  let rec draw () =
    let c =
      {
        ci = 1 + Rng.int rng 4;
        co = 1 + Rng.int rng 4;
        h = 1 + Rng.int rng 13;
        w = 1 + Rng.int rng 13;
        kh = 1 + Rng.int rng 4;
        kw = 1 + Rng.int rng 4;
        stride = 1 + Rng.int rng 2;
        (* up to kernel + 2: deliberately allows pad > kernel *)
        pad = Rng.int rng 6;
        with_bias = Rng.bool rng;
      }
    in
    if valid c then c else draw ()
  in
  List.init n (fun _ -> draw ())

let conv_out_dim x k ~stride ~pad = (((x + (2 * pad)) - k) / stride) + 1

let valid_conv c =
  conv_out_dim c.h c.kh ~stride:c.stride ~pad:c.pad >= 1
  && conv_out_dim c.w c.kw ~stride:c.stride ~pad:c.pad >= 1

let valid_transpose c =
  ((c.h - 1) * c.stride) - (2 * c.pad) + c.kh >= 1
  && ((c.w - 1) * c.stride) - (2 * c.pad) + c.kw >= 1

let make_inputs rng c =
  let x = T.randn rng [| c.ci; c.h; c.w |] in
  let w = T.randn rng [| c.co; c.ci; c.kh; c.kw |] in
  let bias = if c.with_bias then Some (T.randn rng [| c.co |]) else None in
  (x, w, bias)

(* The kernels take [n; c; h; w] batches and [Conv_ref] one [c; h; w]
   sample: a sample as a batch of one, a batch of one as its sample, and
   a per-sample reference over a batch, restacked. *)
let batch1 t = T.reshape t (Array.append [| 1 |] (T.shape t))
let sample1 t = T.reshape t (Array.sub (T.shape t) 1 (T.rank t - 1))
let per_sample f x = T.stack (Array.map f (T.unstack x))

(* Hand-picked corners that a random draw might miss. *)
let corner_conv_cases =
  [
    (* pad strictly larger than the kernel, both parities *)
    { ci = 2; co = 3; h = 5; w = 7; kh = 2; kw = 2; stride = 1; pad = 3;
      with_bias = true };
    { ci = 1; co = 1; h = 4; w = 4; kh = 3; kw = 1; stride = 2; pad = 4;
      with_bias = false };
    (* 1x1 input, kernel covers it only via padding *)
    { ci = 3; co = 2; h = 1; w = 1; kh = 3; kw = 3; stride = 1; pad = 1;
      with_bias = true };
    (* 1x1 kernel degenerates to a pure channel mix *)
    { ci = 4; co = 4; h = 9; w = 6; kh = 1; kw = 1; stride = 1; pad = 0;
      with_bias = false };
    (* wide rectangular kernel with stride *)
    { ci = 2; co = 5; h = 11; w = 13; kh = 1; kw = 5; stride = 3; pad = 2;
      with_bias = true };
    (* several times gemm_par_macs, so the jobs=4 schedule genuinely
       bands the GEMM across domains *)
    { ci = 8; co = 16; h = 32; w = 32; kh = 3; kw = 3; stride = 1; pad = 1;
      with_bias = true };
    (* 16 and 147,456 multiply-adds: far below and well above the
       smallest conv the flows run (8,192) *)
    { ci = 1; co = 1; h = 3; w = 3; kh = 2; kw = 2; stride = 1; pad = 0;
      with_bias = false };
    { ci = 8; co = 8; h = 16; w = 16; kh = 3; kw = 3; stride = 1; pad = 1;
      with_bias = true };
  ]

let corner_transpose_cases =
  [
    (* the bench shape in miniature: stride-2 4x4 upsampling *)
    { ci = 3; co = 2; h = 6; w = 5; kh = 4; kw = 4; stride = 2; pad = 1;
      with_bias = true };
    { ci = 1; co = 1; h = 1; w = 1; kh = 2; kw = 2; stride = 2; pad = 0;
      with_bias = false };
    { ci = 2; co = 3; h = 7; w = 4; kh = 3; kw = 5; stride = 3; pad = 2;
      with_bias = true };
    (* above gemm_par_macs with stride 1, so the one phase GEMM runs
       pooled when jobs=4 *)
    { ci = 8; co = 8; h = 36; w = 36; kh = 4; kw = 4; stride = 1; pad = 2;
      with_bias = true };
    (* 16 multiply-adds *)
    { ci = 1; co = 1; h = 2; w = 2; kh = 2; kw = 2; stride = 1; pad = 0;
      with_bias = false };
  ]

(* Multiply-adds of a conv case and of a transpose case. *)
let conv_macs c =
  let oh = conv_out_dim c.h c.kh ~stride:c.stride ~pad:c.pad
  and ow = conv_out_dim c.w c.kw ~stride:c.stride ~pad:c.pad in
  c.co * c.ci * c.kh * c.kw * oh * ow

let transpose_macs c = c.ci * c.co * c.kh * c.kw * c.h * c.w

(* The case list reaches both sides of 4096 multiply-adds: tiny shapes
   as well as the sizes the flows run (8,192 and up). *)
let check_spans_4096 what macs cases =
  Alcotest.(check (pair bool bool))
    (what ^ " cases below and above 4096 multiply-adds")
    (true, true)
    (List.exists (fun c -> macs c < 4096) cases,
     List.exists (fun c -> macs c >= 4096) cases)

let check_conv2d rng c =
  let x, w, bias = make_inputs rng c in
  let reference = Conv_ref.conv2d ~stride:c.stride ~pad:c.pad x ~weight:w ~bias in
  on_both_schedules (fun sched ->
      Alcotest.check exact_tensor
        (case_name "conv2d" c ^ " " ^ sched)
        (batch1 reference)
        (T.conv2d ~stride:c.stride ~pad:c.pad (batch1 x) ~weight:w ~bias))

(* Both backward passes over batches of 1, 2 and 3 samples, against
   [Conv_ref] per sample: the input gradient is the samples' gradients
   stacked, the weight gradient their sum in ascending sample order. *)
let check_conv2d_backwards rng c =
  let w = T.randn rng [| c.co; c.ci; c.kh; c.kw |] in
  List.iter
    (fun n ->
      let x = T.randn rng [| n; c.ci; c.h; c.w |] in
      let y = T.conv2d ~stride:c.stride ~pad:c.pad x ~weight:w ~bias:None in
      let gout = T.randn rng (T.shape y) in
      let xs = T.unstack x and gs = T.unstack gout in
      let ri =
        T.stack
          (Array.map2
             (fun x g ->
               Conv_ref.backward_input ~stride:c.stride ~pad:c.pad
                 ~input_shape:(T.shape x) ~weight:w g)
             xs gs)
      in
      let rw =
        let per =
          Array.map2
            (fun x g ->
              Conv_ref.backward_weight ~stride:c.stride ~pad:c.pad ~input:x
                ~weight_shape:(T.shape w) g)
            xs gs
        in
        Array.fold_left T.add per.(0) (Array.sub per 1 (n - 1))
      in
      let tag what = Printf.sprintf "%s n=%d" (case_name what c) n in
      on_both_schedules (fun sched ->
          Alcotest.check exact_tensor
            (tag "bwd_input" ^ " " ^ sched)
            ri
            (T.conv2d_backward_input ~stride:c.stride ~pad:c.pad
               ~input_shape:(T.shape x) ~weight:w gout);
          Alcotest.check exact_tensor
            (tag "bwd_weight" ^ " " ^ sched)
            rw
            (T.conv2d_backward_weight ~stride:c.stride ~pad:c.pad ~input:x
               ~weight_shape:(T.shape w) gout)))
    [ 1; 2; 3 ]

let check_transpose rng c =
  let x = T.randn rng [| c.ci; c.h; c.w |] in
  (* transposed-conv weight layout is [ci; co; kh; kw] *)
  let w = T.randn rng [| c.ci; c.co; c.kh; c.kw |] in
  let bias = if c.with_bias then Some (T.randn rng [| c.co |]) else None in
  let reference =
    Conv_ref.conv2d_transpose ~stride:c.stride ~pad:c.pad x ~weight:w ~bias
  in
  on_both_schedules (fun sched ->
      Alcotest.check exact_tensor
        (case_name "transpose" c ^ " " ^ sched)
        (batch1 reference)
        (T.conv2d_transpose ~stride:c.stride ~pad:c.pad (batch1 x) ~weight:w
           ~bias))

let test_conv2d_random () =
  let rng = Rng.create 0xC0417 in
  let cases = corner_conv_cases @ random_cases rng ~n:30 ~valid:valid_conv in
  check_spans_4096 "conv2d" conv_macs cases;
  List.iter (check_conv2d rng) cases

let test_backwards_random () =
  let rng = Rng.create 0xC0418 in
  let cases = corner_conv_cases @ random_cases rng ~n:30 ~valid:valid_conv in
  check_spans_4096 "backward" conv_macs cases;
  List.iter (check_conv2d_backwards rng) cases

let test_transpose_random () =
  let rng = Rng.create 0xC0419 in
  let cases =
    corner_transpose_cases @ random_cases rng ~n:30 ~valid:valid_transpose
  in
  check_spans_4096 "transpose" transpose_macs cases;
  List.iter (check_transpose rng) cases

(* Pool chunks [f] submits, from the pool's own counter (a function of
   the work alone, the same at every job count). *)
let pool_chunks f =
  let was = Obs.enabled () in
  Obs.enable ();
  Fun.protect
    ~finally:(fun () -> if not was then Obs.disable ())
    (fun () ->
      let before = Obs.counter_value "pool/chunks" in
      let r = f () in
      (Obs.counter_value "pool/chunks" - before, r))

(* The gather-GEMM matmul must agree bitwise with a naive row-major
   triple loop accumulating the inner dimension in ascending order —
   the reference order every kernel in the tensor layer preserves.
   The stream must reach every m mod 4 (the micro-kernel's 4-row tile
   and its remainder rows), every n mod 4 (full quads and the tail),
   a one-term product on fewer than 4 rows, and pooled GEMMs whose
   bands carry remainder rows: split over column blocks (m < 4 is one
   row tile, so more than one band means column bands) and over rows
   (n <= 8 is one column block, so the bands are row bands and the
   last one is ragged). *)
let test_matmul_vs_reference () =
  let rng = Rng.create 0xC041A in
  let m_mods = Array.make 4 false and n_mods = Array.make 4 false in
  let thin = ref false in
  let column_bands = ref false and ragged_row_bands = ref false in
  let check (m, k, n) =
    m_mods.(m mod 4) <- true;
    n_mods.(n mod 4) <- true;
    if m < 4 && k = 1 then thin := true;
    let a = T.randn rng [| m; k |] and b = T.randn rng [| k; n |] in
    let reference =
      T.init [| m; n |] (fun idx ->
          let i = idx.(0) and j = idx.(1) in
          let acc = ref 0. in
          for p = 0 to k - 1 do
            acc := !acc +. (T.get2 a i p *. T.get2 b p j)
          done;
          !acc)
    in
    on_both_schedules (fun sched ->
        let bands, c = pool_chunks (fun () -> T.matmul a b) in
        if bands > 1 && m < 4 then column_bands := true;
        if bands > 1 && n <= 4 && m mod 4 <> 0 then ragged_row_bands := true;
        Alcotest.check exact_tensor
          (Printf.sprintf "matmul %dx%dx%d %s" m k n sched)
          reference c)
  in
  for case = 1 to 20 do
    (* the last cases are mostly over twice gemm_par_macs, so the
       jobs=4 schedule exercises real cross-domain bands *)
    let big = if case > 17 then 60 else 0 in
    let m = big + 1 + Rng.int rng 40
    and k = big + 1 + Rng.int rng 40
    and n = big + 1 + Rng.int rng 40 in
    check (m, k, n)
  done;
  (* the last two are several times gemm_par_macs, so they stay
     pooled under any plausible threshold *)
  List.iter check
    [ (1, 1, 1); (3, 1, 6); (2, 1, 7); (8, 3, 8); (3, 256, 1001);
      (201, 1000, 3) ];
  Array.iteri
    (fun r hit ->
      Alcotest.(check bool) (Printf.sprintf "stream covers m mod 4 = %d" r) true hit)
    m_mods;
  Array.iteri
    (fun r hit ->
      Alcotest.(check bool) (Printf.sprintf "stream covers n mod 4 = %d" r) true hit)
    n_mods;
  Alcotest.(check bool) "stream covers m < 4 with k = 1" true !thin;
  Alcotest.(check bool) "stream covers pooled column bands with m < 4" true
    !column_bands;
  Alcotest.(check bool) "stream covers pooled row bands with m mod 4 <> 0"
    true !ragged_row_bands;
  (* Fused-multiply-add trap: with x = 1 + 2^-27, x*x = 1 + 2^-26 +
     2^-54 rounds to 1 + 2^-26, so -(1 + 2^-26) + x*x is exactly 0.
     A fused multiply-add keeps the 2^-54.  5 x 5 puts elements in a
     4-row tile, a remainder row, a full quad and the tail. *)
  let x = 1. +. ldexp 1. (-27) in
  let a =
    T.init [| 5; 2 |] (fun idx ->
        if idx.(1) = 0 then -.(1. +. ldexp 1. (-26)) else x)
  in
  let b = T.init [| 2; 5 |] (fun idx -> if idx.(0) = 0 then 1. else x) in
  on_both_schedules (fun sched ->
      Alcotest.check exact_tensor
        ("no fused multiply-add " ^ sched)
        (T.zeros [| 5; 5 |]) (T.matmul a b))

(* Naive row-major reference: each output one chain over p ascending. *)
let naive_matmul a b =
  let m = T.dim a 0 and k = T.dim a 1 and n = T.dim b 1 in
  T.init [| m; n |] (fun idx ->
      let i = idx.(0) and j = idx.(1) in
      let acc = ref 0. in
      for p = 0 to k - 1 do
        acc := !acc +. (T.get2 a i p *. T.get2 b p j)
      done;
      !acc)

(* Bit-for-bit equality, element by element, through the bits of each
   float (so -0. against 0. and NaN payloads count too). *)
let check_bits what expected actual =
  Alcotest.(check (array int)) (what ^ " shape") (T.shape expected)
    (T.shape actual);
  let e = T.numel expected in
  for i = 0 to e - 1 do
    let x = Int64.bits_of_float (T.get_flat expected i)
    and y = Int64.bits_of_float (T.get_flat actual i) in
    if x <> y then
      Alcotest.failf "%s: element %d is %h, expected %h" what i
        (T.get_flat actual i) (T.get_flat expected i)
  done

(* The slab height of the gather-GEMM kernel (KB in gemm_stubs.c). *)
let kb = 256

(* The fused kernel's blocking: slabs of KB rows of p (one chain
   continued across slabs), 8-column blocks of two quads, a 4-row
   tile with 1..3 remainder rows, and pooled row or column bands.
   Every edge of that blocking against the naive loop, bit for bit, at
   jobs 1 and 4; coverage is asserted on the case list itself and, for
   pooling, on the pool's own chunk counter. *)
let test_blocking_edges () =
  let rng = Rng.create 0xC041F in
  let seen = Hashtbl.create 16 in
  let note what = Hashtbl.replace seen what () in
  let check_matmul (m, k, n) =
    let a = T.randn rng [| m; k |] and b = T.randn rng [| k; n |] in
    let reference = naive_matmul a b in
    List.iter
      (fun kk -> if k = kk then note (Printf.sprintf "k = %d" kk))
      [ kb - 1; kb; kb + 1; (2 * kb) + 3 ];
    if n mod 8 >= 4 then note "single quad left over";
    if n mod 4 <> 0 then note (Printf.sprintf "n mod 4 = %d" (n mod 4));
    if m < 4 then note "m < 4";
    on_both_schedules (fun sched ->
        let bands, c = pool_chunks (fun () -> T.matmul a b) in
        if bands > 1 then begin
          (* B of one 8-column block: row bands, else column bands *)
          if n <= 8 then begin
            note "pooled row bands";
            if m mod 4 <> 0 then note "pooled row bands, m mod 4 <> 0"
          end
          else if n mod 8 <> 0 then note "pooled column bands, n mod 8 <> 0"
        end;
        check_bits (Printf.sprintf "matmul %dx%dx%d %s" m k n sched) reference c)
  in
  List.iter check_matmul
    [
      (* the slab boundary: one chain continued across slabs *)
      (5, kb - 1, 9); (6, kb, 12); (7, kb + 1, 13); (3, (2 * kb) + 3, 14);
      (* 8-column blocks, a single quad left over, every n mod 4 *)
      (4, 7, 4); (9, 5, 12); (1, 3, 17); (2, 9, 22); (3, 6, 31);
      (* pooled row bands (one column block): 51 tiles, the last band
         ragged; and column bands with m mod 4 <> 0 *)
      (201, 1000, 3); (130, 300, 12);
      (* pooled column bands whose last band is not 8-column aligned *)
      (3, kb, 1001); (5, (2 * kb) + 3, 203);
    ];
  (* conv lowerings across the slab boundary: k = ci*kh*kw = 288 and
     k = oh*ow = 257 (a 1 x 257 plane) and 515 *)
  let conv_case c =
    check_conv2d rng c;
    check_conv2d_backwards rng c
  in
  conv_case
    { ci = 32; co = 5; h = 6; w = 7; kh = 3; kw = 3; stride = 1; pad = 1;
      with_bias = true };
  conv_case
    { ci = 3; co = 6; h = 1; w = 257; kh = 1; kw = 1; stride = 1; pad = 0;
      with_bias = false };
  conv_case
    { ci = 2; co = 3; h = 5; w = 103; kh = 1; kw = 3; stride = 1; pad = 1;
      with_bias = false };
  List.iter
    (fun what ->
      Alcotest.(check bool) ("cases reach " ^ what) true (Hashtbl.mem seen what))
    [
      "k = 255"; "k = 256"; "k = 257"; "k = 515"; "single quad left over";
      "n mod 4 = 1"; "n mod 4 = 2"; "n mod 4 = 3"; "m < 4"; "pooled row bands";
      "pooled row bands, m mod 4 <> 0"; "pooled column bands, n mod 8 <> 0";
    ]

(* [gemm_gather] on arbitrary descriptors against its definition,
   B(p, j) = src[off_p + off_j + y*w + x] inside the image and 0.
   outside, bit for bit.  The conv builders only make columns whose x
   runs along one image row, so columns are drawn here in quads that
   are such runs, runs broken by another offset or another y in one
   column, or scattered; rows and columns reach outside the image. *)
let test_gather_definition () =
  let rng = Rng.create 0xC0421 in
  let kinds = Array.make 4 0 in
  for case = 1 to 150 do
    let h = 1 + Rng.int rng 6 and w = 1 + Rng.int rng 9 in
    let planes = 1 + Rng.int rng 3 in
    let m = 1 + Rng.int rng 7 and k = 1 + Rng.int rng 20
    and n = 1 + Rng.int rng 30 in
    let rows =
      Array.init (3 * k) (fun i ->
          match i mod 3 with
          | 0 -> Rng.int rng planes * h * w
          | _ -> Rng.int rng 5 - 2)
    in
    let cols = Array.make (3 * n) 0 in
    for q = 0 to (n - 1) / 4 do
      let kind = Rng.int rng 4 in
      kinds.(kind) <- kinds.(kind) + 1;
      let o = Rng.int rng 2 * h * w and y = Rng.int rng (h + 2) - 1
      and x = Rng.int rng (w + 2) - 1 in
      let broken = Rng.int rng 4 in
      for t = 0 to min 3 (n - 1 - (4 * q)) do
        let c = 3 * ((4 * q) + t) in
        let o', y', x' =
          match kind with
          | 0 -> (o, y, x + t)
          | 1 -> ((if t = broken then o + (h * w) else o), y, x + t)
          | 2 -> (o, (if t = broken then y + 1 else y), x + t)
          | _ -> (Rng.int rng 2 * h * w, Rng.int rng (h + 2) - 1,
                  Rng.int rng (w + 2) - 1)
        in
        cols.(c) <- o';
        cols.(c + 1) <- y';
        cols.(c + 2) <- x'
      done
    done;
    let src = Array.init ((planes + 2) * h * w) (fun _ -> Rng.float rng 2. -. 1.) in
    let a = Array.init (m * k) (fun _ -> Rng.float rng 2. -. 1.) in
    let b p j =
      let y = rows.((3 * p) + 1) + cols.((3 * j) + 1)
      and x = rows.((3 * p) + 2) + cols.((3 * j) + 2) in
      if y >= 0 && y < h && x >= 0 && x < w then
        src.(rows.(3 * p) + cols.(3 * j) + (y * w) + x)
      else 0.
    in
    let reference =
      T.init [| m; n |] (fun idx ->
          let acc = ref 0. in
          for p = 0 to k - 1 do
            acc := !acc +. (a.((idx.(0) * k) + p) *. b p idx.(1))
          done;
          !acc)
    in
    on_both_schedules (fun sched ->
        let out = Array.make (m * n) 0. in
        T.gemm_gather ~m ~k ~n ~h ~w src rows cols a out;
        check_bits
          (Printf.sprintf "case %d (%dx%dx%d on %dx%d) %s" case m k n h w sched)
          reference (T.make [| m; n |] out));
    (* the same product written at an offset inside a larger array
       whose other elements stay untouched *)
    let off = Rng.int rng 5 in
    let sentinel = 7.25 in
    let big = Array.make (off + (m * n) + Rng.int rng 3) sentinel in
    Array.fill big off (m * n) 0.;
    T.gemm_gather ~off ~m ~k ~n ~h ~w src rows cols a big;
    check_bits
      (Printf.sprintf "case %d at off %d" case off)
      reference
      (T.make [| m; n |] (Array.sub big off (m * n)));
    Array.iteri
      (fun p v ->
        if (p < off || p >= off + (m * n)) && v <> sentinel then
          Alcotest.failf "case %d: element %d outside the output written" case
            p)
      big
  done;
  Array.iteri
    (fun kind count ->
      Alcotest.(check bool)
        (Printf.sprintf "cases reach column quads of kind %d" kind) true
        (count >= 20))
    kinds

(* The kernel is compiled for several ISAs and dispatches to the widest
   this CPU has; every variant the CPU supports must give the bits of
   the baseline variant and of the naive / [Conv_ref] references, the
   fused-multiply-add trap included. *)
let test_isa_variants () =
  let rng = Rng.create 0xC0420 in
  Alcotest.(check bool) "the dispatched variant is compiled in" true
    (List.mem (T.gemm_isa ()) T.gemm_isa_variants);
  Alcotest.(check bool) "the baseline variant is compiled in" true
    (List.mem "baseline" T.gemm_isa_variants);
  let mats =
    List.map
      (fun (m, k, n) -> (T.randn rng [| m; k |], T.randn rng [| k; n |]))
      [ (5, 7, 13); (7, kb + 3, 21); (3, 256, 1001); (201, 1000, 3) ]
  in
  let c = { ci = 8; co = 7; h = 19; w = 17; kh = 3; kw = 3; stride = 2;
            pad = 1; with_bias = true } in
  let x, w, bias = make_inputs rng c in
  let xb = batch1 x in
  let y = T.conv2d ~stride:2 ~pad:1 xb ~weight:w ~bias:None in
  let gout = T.randn rng (T.shape y) in
  let g = sample1 gout in
  let tw = T.randn rng [| 8; 7; 4; 4 |] in
  let kernels =
    List.map
      (fun (a, b) ->
        (Printf.sprintf "matmul %dx%dx%d" (T.dim a 0) (T.dim a 1) (T.dim b 1),
         (fun () -> naive_matmul a b), fun () -> T.matmul a b))
      mats
    @ [
        ( "conv2d",
          (fun () -> batch1 (Conv_ref.conv2d ~stride:2 ~pad:1 x ~weight:w ~bias)),
          fun () -> T.conv2d ~stride:2 ~pad:1 xb ~weight:w ~bias );
        ( "backward_input",
          (fun () ->
            batch1
              (Conv_ref.backward_input ~stride:2 ~pad:1 ~input_shape:(T.shape x)
                 ~weight:w g)),
          fun () ->
            T.conv2d_backward_input ~stride:2 ~pad:1 ~input_shape:(T.shape xb)
              ~weight:w gout );
        ( "backward_weight",
          (fun () ->
            Conv_ref.backward_weight ~stride:2 ~pad:1 ~input:x
              ~weight_shape:(T.shape w) g),
          fun () ->
            T.conv2d_backward_weight ~stride:2 ~pad:1 ~input:xb
              ~weight_shape:(T.shape w) gout );
        ( "conv2d_transpose",
          (fun () ->
            batch1
              (Conv_ref.conv2d_transpose ~stride:2 ~pad:1 x ~weight:tw
                 ~bias:None)),
          fun () -> T.conv2d_transpose ~stride:2 ~pad:1 xb ~weight:tw ~bias:None
        );
      ]
  in
  (* FMA trap as in "matmul == naive reference": exactly 0 without a
     fused multiply-add *)
  let xt = 1. +. ldexp 1. (-27) in
  let ta =
    T.init [| 5; 2 |] (fun idx ->
        if idx.(1) = 0 then -.(1. +. ldexp 1. (-26)) else xt)
  in
  let tb = T.init [| 2; 5 |] (fun idx -> if idx.(0) = 0 then 1. else xt) in
  let run_all () =
    List.map (fun (_, _, gemm) -> gemm ()) kernels
  in
  let baseline =
    match T.with_gemm_isa "baseline" (fun () -> run_all ()) with
    | Some r -> r
    | None -> Alcotest.fail "the baseline variant must run on every CPU"
  in
  let exercised =
    List.filter
      (fun isa ->
        let ran =
          T.with_gemm_isa isa (fun () ->
              on_both_schedules (fun sched ->
                  let tag what = Printf.sprintf "%s %s %s" what isa sched in
                  List.iter2
                    (fun (what, reference, gemm) base ->
                      let r = gemm () in
                      check_bits (tag what ^ " vs baseline") base r;
                      check_bits (tag what ^ " vs reference") (reference ()) r)
                    kernels baseline;
                  check_bits (tag "no fused multiply-add")
                    (T.zeros [| 5; 5 |]) (T.matmul ta tb)))
        in
        Option.is_some ran)
      T.gemm_isa_variants
  in
  Printf.printf "gemm ISA variants exercised: %s (dispatched: %s)\n"
    (String.concat ", " exercised) (T.gemm_isa ());
  Alcotest.(check bool) "the dispatched variant was exercised" true
    (List.mem (T.gemm_isa ()) exercised);
  Alcotest.(check bool) "an unknown variant is refused" true
    (Option.is_none (T.with_gemm_isa "no-such-isa" (fun () -> ())))

(* The stride-phase lowering's degenerate phases: a kernel smaller
   than the stride leaves some phases with no taps (their outputs are
   zero, or the bias alone), and an output grid smaller than the
   stride leaves some phases with no pixels. *)
let test_phase_corners () =
  let rng = Rng.create 0xC041E in
  let no_taps c =
    List.exists
      (fun r -> (r + c.pad) mod c.stride >= min c.kh c.kw)
      (List.init c.stride Fun.id)
  in
  let tapless = ref 0 and gridless = ref 0 in
  let transpose_cases =
    [
      (* 1x1 stride 2: odd output rows and columns have no taps *)
      { ci = 8; co = 8; h = 8; w = 8; kh = 1; kw = 1; stride = 2; pad = 0;
        with_bias = true };
      (* 2x2 stride 3 on a 1x1 input: a 2x2 output, so phase 2 has
         neither taps nor pixels *)
      { ci = 32; co = 32; h = 1; w = 1; kh = 2; kw = 2; stride = 3; pad = 0;
        with_bias = true };
      (* 2x3 stride 3 with padding: taps and grids differ per axis *)
      { ci = 16; co = 8; h = 5; w = 4; kh = 2; kw = 3; stride = 3; pad = 1;
        with_bias = false };
    ]
  in
  List.iter
    (fun c ->
      let xb = T.randn rng [| 2; c.ci; c.h; c.w |] in
      let x = T.randn rng [| c.ci; c.h; c.w |] in
      let w = T.randn rng [| c.ci; c.co; c.kh; c.kw |] in
      let bias = if c.with_bias then Some (T.randn rng [| c.co |]) else None in
      let oh = ((c.h - 1) * c.stride) - (2 * c.pad) + c.kh in
      if no_taps c then incr tapless;
      if min oh (((c.w - 1) * c.stride) - (2 * c.pad) + c.kw) < c.stride then
        incr gridless;
      let reference x =
        Conv_ref.conv2d_transpose ~stride:c.stride ~pad:c.pad x ~weight:w ~bias
      in
      let ref_b = per_sample reference xb in
      on_both_schedules (fun sched ->
          let name what = Printf.sprintf "%s %s" (case_name what c) sched in
          Alcotest.check exact_tensor (name "transpose n=1")
            (batch1 (reference x))
            (T.conv2d_transpose ~stride:c.stride ~pad:c.pad (batch1 x)
               ~weight:w ~bias);
          Alcotest.check exact_tensor (name "transpose n=2") ref_b
            (T.conv2d_transpose ~stride:c.stride ~pad:c.pad xb ~weight:w
               ~bias)))
    transpose_cases;
  let backward_cases =
    [
      (* 1x1 stride 2: odd input pixels get no taps *)
      { ci = 8; co = 8; h = 16; w = 16; kh = 1; kw = 1; stride = 2; pad = 0;
        with_bias = false };
      (* a 1x1 input: phase 1 has no pixels *)
      { ci = 24; co = 24; h = 1; w = 1; kh = 3; kw = 3; stride = 2; pad = 1;
        with_bias = false };
      (* 2x2 stride 3 over a 2-wide input: no taps and no pixels *)
      { ci = 16; co = 16; h = 5; w = 2; kh = 2; kw = 2; stride = 3; pad = 0;
        with_bias = false };
    ]
  in
  List.iter
    (fun c ->
      let x, w, _ = make_inputs rng c in
      if no_taps c then incr tapless;
      if min c.h c.w < c.stride then incr gridless;
      let x = batch1 x in
      let y = T.conv2d ~stride:c.stride ~pad:c.pad x ~weight:w ~bias:None in
      let gout = T.randn rng (T.shape y) in
      let reference =
        batch1
          (Conv_ref.backward_input ~stride:c.stride ~pad:c.pad
             ~input_shape:(T.shape (sample1 x)) ~weight:w (sample1 gout))
      in
      on_both_schedules (fun sched ->
          Alcotest.check exact_tensor
            (Printf.sprintf "%s %s" (case_name "bwd_input" c) sched)
            reference
            (T.conv2d_backward_input ~stride:c.stride ~pad:c.pad
               ~input_shape:(T.shape x) ~weight:w gout)))
    backward_cases;
  Alcotest.(check bool) "cases reach phases with no taps" true (!tapless >= 4);
  Alcotest.(check bool) "cases reach phases with no pixels" true (!gridless >= 3)

(* The forward lowerings over batches against stacked per-sample
   [Conv_ref] results.
   A batch lays its columns out (b, oy, ox), so a packing quad can
   straddle an output row or a sample boundary and the tail block
   holds n*oh*ow mod 4 columns; the stream must reach each of those,
   plus stride 2 and pad > kernel. *)
let test_batched_vs_reference () =
  let rng = Rng.create 0xC041C in
  let straddle_row = ref false and straddle_sample = ref false in
  let ragged_tail = ref false and strided = ref false in
  let big_pad = ref false in
  let note ~oh ~ow ~n c =
    let ohw = oh * ow in
    let quad_cross ~period =
      let rec go j = j + 3 < n * ohw && ((j / period <> (j + 3) / period) || go (j + 4)) in
      go 0
    in
    if quad_cross ~period:ow then straddle_row := true;
    if n > 1 && quad_cross ~period:ohw then straddle_sample := true;
    if n * ohw mod 4 <> 0 then ragged_tail := true;
    if c.stride = 2 then strided := true;
    if c.pad > max c.kh c.kw then big_pad := true
  in
  let stacked f xs = T.stack (Array.map f xs) in
  let check_case c =
    for n = 1 to 3 do
      let xs = Array.init n (fun _ -> T.randn rng [| c.ci; c.h; c.w |]) in
      let xb = T.stack xs in
      let w = T.randn rng [| c.co; c.ci; c.kh; c.kw |] in
      let bias = if c.with_bias then Some (T.randn rng [| c.co |]) else None in
      let reference =
        stacked
          (fun x -> Conv_ref.conv2d ~stride:c.stride ~pad:c.pad x ~weight:w ~bias)
          xs
      in
      note ~n c ~oh:(T.dim reference 2) ~ow:(T.dim reference 3);
      let tag = Printf.sprintf "%s n=%d" (case_name "conv2d" c) n in
      on_both_schedules (fun sched ->
          Alcotest.check exact_tensor (tag ^ " " ^ sched) reference
            (T.conv2d ~stride:c.stride ~pad:c.pad xb ~weight:w ~bias))
    done
  in
  let check_transpose_case c =
    for n = 1 to 3 do
      let xs = Array.init n (fun _ -> T.randn rng [| c.ci; c.h; c.w |]) in
      let xb = T.stack xs in
      let w = T.randn rng [| c.ci; c.co; c.kh; c.kw |] in
      let bias = if c.with_bias then Some (T.randn rng [| c.co |]) else None in
      let reference =
        stacked
          (fun x ->
            Conv_ref.conv2d_transpose ~stride:c.stride ~pad:c.pad x ~weight:w
              ~bias)
          xs
      in
      note ~n c ~oh:(T.dim reference 2) ~ow:(T.dim reference 3);
      let tag = Printf.sprintf "%s n=%d" (case_name "transpose" c) n in
      on_both_schedules (fun sched ->
          Alcotest.check exact_tensor (tag ^ " " ^ sched) reference
            (T.conv2d_transpose ~stride:c.stride ~pad:c.pad xb ~weight:w ~bias))
    done
  in
  List.iter check_case
    (corner_conv_cases @ random_cases rng ~n:30 ~valid:valid_conv);
  List.iter check_transpose_case
    (corner_transpose_cases @ random_cases rng ~n:30 ~valid:valid_transpose);
  List.iter
    (fun (what, hit) -> Alcotest.(check bool) ("stream covers " ^ what) true !hit)
    [
      ("quads straddling output rows", straddle_row);
      ("quads straddling samples", straddle_sample);
      ("n*oh*ow mod 4 <> 0", ragged_tail);
      ("stride 2", strided);
      ("pad > kernel", big_pad);
    ]

(* Minor-heap words one call allocates, after warm-up calls have grown
   the scratch arena.  Outputs above 256 words go straight to the major
   heap, so this counts only per-call bookkeeping and boxing. *)
let minor_words_of f =
  ignore (f ());
  ignore (f ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* A helper that only moves floats is inferred at ['a array] unless
   annotated, and then boxes every element through the generic array
   accessors (about 147k words for one of these convolutions); a
   [map]/[map2] closure boxes every float it returns.  The kernels must
   stay within a small constant instead. *)
let test_kernels_allocation_free () =
  let module V = Dco3d_autodiff.Value in
  let rng = Rng.create 0xC041D in
  let x = T.randn rng [| 1; 8; 32; 32 |] and xb = T.randn rng [| 2; 8; 32; 32 |] in
  let w = T.randn rng [| 8; 8; 3; 3 |] and b = Some (T.randn rng [| 8 |]) in
  let g = T.randn rng [| 1; 8; 32; 32 |] and gb = T.randn rng [| 2; 8; 32; 32 |] in
  let budget = 512. in
  let check what f =
    let words = minor_words_of f in
    if words > budget then
      Alcotest.failf "%s allocates %.0f minor words per call (budget %.0f)" what
        words budget
  in
  let ma = T.randn rng [| 64; 72 |] and mb = T.randn rng [| 72; 100 |] in
  check "matmul" (fun () -> T.matmul ma mb);
  check "conv2d" (fun () -> T.conv2d ~pad:1 x ~weight:w ~bias:b);
  check "conv2d n=2" (fun () -> T.conv2d ~pad:1 xb ~weight:w ~bias:b);
  check "conv2d_backward_input" (fun () ->
      T.conv2d_backward_input ~pad:1 ~input_shape:[| 1; 8; 32; 32 |] ~weight:w g);
  check "conv2d_backward_weight" (fun () ->
      T.conv2d_backward_weight ~pad:1 ~input:x ~weight_shape:[| 8; 8; 3; 3 |] g);
  check "conv2d_backward_weight n=2" (fun () ->
      T.conv2d_backward_weight ~pad:1 ~input:xb ~weight_shape:[| 8; 8; 3; 3 |] gb);
  (* the stride-phase lowerings: one GEMM per phase *)
  let x16 = T.randn rng [| 1; 8; 16; 16 |] and xb16 = T.randn rng [| 2; 8; 16; 16 |] in
  let g16 = T.randn rng [| 1; 8; 16; 16 |] in
  List.iter
    (fun (k, pad) ->
      let tw = T.randn rng [| 8; 8; k; k |] in
      let what f = Printf.sprintf "%s k%d s2 p%d" f k pad in
      check (what "conv2d_transpose") (fun () ->
          T.conv2d_transpose ~stride:2 ~pad x16 ~weight:tw ~bias:b);
      check (what "conv2d_transpose n=2") (fun () ->
          T.conv2d_transpose ~stride:2 ~pad xb16 ~weight:tw ~bias:b))
    [ (2, 0); (2, 1); (3, 0); (3, 1) ];
  check "conv2d_backward_input s2" (fun () ->
      T.conv2d_backward_input ~stride:2 ~pad:1 ~input_shape:[| 1; 8; 32; 32 |]
        ~weight:w g16);
  check "T.add" (fun () -> T.add x g);
  (* forward and backward through the tape; the budget also covers the
     tape's own bookkeeping (node records, the backward pass's table) *)
  check "V.leaky_relu forward+backward" (fun () ->
      let p = V.param x in
      let y = V.leaky_relu 0.1 p in
      V.backward (V.dot y (V.const g));
      V.grad p)

(* Words (minor and major heap) one call allocates in a fresh domain,
   whose scratch arena starts empty, so scratch the call grows counts
   too. *)
let words_in_fresh_domain f =
  Domain.join
    (Domain.spawn (fun () ->
         let b0 = Gc.allocated_bytes () in
         ignore (Sys.opaque_identity (f ()));
         (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)))

(* A batched forward and a stride-1 input gradient write each sample's
   GEMM straight into the result: besides the output, a call holds only
   descriptors and weight scratch (here about a quarter of the output),
   never a second output-sized array to copy or scatter from. *)
let test_output_in_place () =
  let rng = Rng.create 0x1A9CE in
  let shape = [| 2; 8; 32; 32 |] in
  let xb = T.randn rng shape and gb = T.randn rng shape in
  let w = T.randn rng [| 8; 8; 3; 3 |] and b = Some (T.randn rng [| 8 |]) in
  let out_words = float_of_int (T.numel xb) in
  let check what f =
    let words = words_in_fresh_domain f in
    if words >= 1.5 *. out_words then
      Alcotest.failf "%s allocates %.0f words for a %.0f-word output" what
        words out_words
  in
  check "conv2d n=2" (fun () -> T.conv2d ~pad:1 xb ~weight:w ~bias:b);
  check "conv2d_backward_input n=2" (fun () ->
      T.conv2d_backward_input ~pad:1 ~input_shape:shape ~weight:w gb)

let suites =
  [
    ( "tensor.conv_gemm",
      [
        Alcotest.test_case "conv2d gemm == direct" `Quick test_conv2d_random;
        Alcotest.test_case "backwards gemm == direct" `Quick
          test_backwards_random;
        Alcotest.test_case "transpose gemm == direct" `Quick
          test_transpose_random;
        Alcotest.test_case "matmul == naive reference" `Quick
          test_matmul_vs_reference;
        Alcotest.test_case "gather-GEMM blocking edges" `Quick
          test_blocking_edges;
        Alcotest.test_case "every ISA variant gives the same bits" `Quick
          test_isa_variants;
        Alcotest.test_case "gemm_gather == its definition" `Quick
          test_gather_definition;
        Alcotest.test_case "stride phases without taps or pixels" `Quick
          test_phase_corners;
        Alcotest.test_case "batched == stacked direct" `Quick
          test_batched_vs_reference;
        Alcotest.test_case "kernels allocation-free" `Quick
          test_kernels_allocation_free;
        Alcotest.test_case "batched output written in place" `Quick
          test_output_in_place;
      ] );
  ]
