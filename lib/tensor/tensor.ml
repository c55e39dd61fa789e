type t = { shape : int array; data : float array }

module Pool = Dco3d_parallel.Pool

(* Per-kernel parallel thresholds, in scalar multiply-adds (MACs).
   A kernel below its threshold stays on the calling domain: pool-v2
   dispatch costs a couple of microseconds (two atomic writes plus a
   worker wake-up), so a region is only worth opening when every helper
   gets well over that in work.  The crossovers were calibrated per
   kernel against the kernel bench shapes (BENCH_kernels.json): the
   gather-GEMM (matmul and every conv lowering) amortizes dispatch
   fastest (dense multiply-adds), and matvec is memory-bound (one
   float of traffic per MAC leaves little for extra cores), so each
   gets its own floor instead of a single global par_threshold =
   1 lsl 16, which sent sub-crossover shapes to the pool at a loss.
   The gather-GEMM applies its floor to every chunk
   ([gemm_gather]); on the conv and matmul kernel rows at two jobs,
   floors of 2^15 to 2^18 per chunk timed within noise of each other.

     kernel                  threshold (MACs)  first clearly-winning shape
     gather-GEMM             1 lsl 17 / chunk  128 x 128 x 128
     matvec                  1 lsl 18          512 x 512

   The guards depend only on the problem size — never on the job
   count — so the sequential and pooled paths agree bit-for-bit at
   every DCO3D_JOBS value. *)
let gemm_par_macs = 1 lsl 17
let matvec_par_macs = 1 lsl 18

let numel_of_shape shape = Array.fold_left ( * ) 1 shape

let make shape data =
  let n = numel_of_shape shape in
  if Array.length data <> n then
    invalid_arg
      (Printf.sprintf "Tensor.make: shape implies %d elements, got %d" n
         (Array.length data));
  Array.iter
    (fun d -> if d < 0 then invalid_arg "Tensor.make: negative dimension")
    shape;
  { shape = Array.copy shape; data }

let zeros shape = make shape (Array.make (numel_of_shape shape) 0.)
let ones shape = make shape (Array.make (numel_of_shape shape) 1.)
let full shape v = make shape (Array.make (numel_of_shape shape) v)
let scalar v = make [||] [| v |]
let of_array1 a = make [| Array.length a |] (Array.copy a)

let of_array2 rows =
  let m = Array.length rows in
  if m = 0 then make [| 0; 0 |] [||]
  else begin
    let n = Array.length rows.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> n then
          invalid_arg "Tensor.of_array2: ragged rows")
      rows;
    let data = Array.make (m * n) 0. in
    for i = 0 to m - 1 do
      Array.blit rows.(i) 0 data (i * n) n
    done;
    make [| m; n |] data
  end

let shape t = Array.copy t.shape
let numel t = Array.length t.data
let rank t = Array.length t.shape
let dim t i = t.shape.(i)
let copy t = { shape = Array.copy t.shape; data = Array.copy t.data }
let same_shape a b = a.shape = b.shape

let reshape t shape =
  let n = numel_of_shape shape in
  if n <> Array.length t.data then
    invalid_arg "Tensor.reshape: element count mismatch";
  (* the data array is deliberately aliased (see the interface); the
     shape array is copied so a caller mutating its own array cannot
     corrupt the tensor *)
  { shape = Array.copy shape; data = t.data }

let reshape_copy t shape =
  let n = numel_of_shape shape in
  if n <> Array.length t.data then
    invalid_arg "Tensor.reshape_copy: element count mismatch";
  { shape = Array.copy shape; data = Array.copy t.data }

(* Row-major flat offset of a multi-index. *)
let offset t idx =
  let r = Array.length t.shape in
  if Array.length idx <> r then invalid_arg "Tensor: index rank mismatch";
  let off = ref 0 in
  for k = 0 to r - 1 do
    let i = idx.(k) in
    if i < 0 || i >= t.shape.(k) then invalid_arg "Tensor: index out of bounds";
    off := (!off * t.shape.(k)) + i
  done;
  !off

let init shape f =
  let n = numel_of_shape shape in
  let r = Array.length shape in
  let idx = Array.make r 0 in
  let data =
    Array.init n (fun _ ->
        let v = f idx in
        (* advance the multi-index (row-major). *)
        let k = ref (r - 1) in
        let carry = ref true in
        while !carry && !k >= 0 do
          idx.(!k) <- idx.(!k) + 1;
          if idx.(!k) >= shape.(!k) then begin
            idx.(!k) <- 0;
            decr k
          end
          else carry := false
        done;
        v)
  in
  make shape data

let get t idx = t.data.(offset t idx)
let set t idx v = t.data.(offset t idx) <- v
(* The element accessors are [@inline]: ocamlopt's own size heuristic
   inlines [get_flat]/[set_flat] across modules but not the rank-2/3
   ones, and a float returned from or passed to a call that is not
   inlined is boxed (4 minor words per element of a get2/set2 loop). *)
let[@inline] get_flat t i = t.data.(i)
let[@inline] set_flat t i v = t.data.(i) <- v

let[@inline] get2 t i j = t.data.((i * t.shape.(1)) + j)
let[@inline] set2 t i j v = t.data.((i * t.shape.(1)) + j) <- v

let[@inline] get3 t c i j =
  let h = t.shape.(1) and w = t.shape.(2) in
  t.data.((((c * h) + i) * w) + j)

let[@inline] set3 t c i j v =
  let h = t.shape.(1) and w = t.shape.(2) in
  t.data.((((c * h) + i) * w) + j) <- v

let rand_uniform rng ?(lo = 0.) ?(hi = 1.) shape =
  let n = numel_of_shape shape in
  make shape (Array.init n (fun _ -> Rng.range rng lo hi))

let randn rng ?(mu = 0.) ?(sigma = 1.) shape =
  let n = numel_of_shape shape in
  make shape (Array.init n (fun _ -> Rng.gaussian ~mu ~sigma rng))

let kaiming rng ~fan_in shape =
  if fan_in <= 0 then invalid_arg "Tensor.kaiming: fan_in must be positive";
  randn rng ~sigma:(sqrt (2. /. float_of_int fan_in)) shape

let map f t = { shape = t.shape; data = Array.map f t.data }

let check_zip a b =
  if not (same_shape a b) then invalid_arg "Tensor.map2: shape mismatch"

let map2 f a b =
  check_zip a b;
  let n = Array.length a.data in
  let data = Array.make n 0. in
  for i = 0 to n - 1 do
    Array.unsafe_set data i
      (f (Array.unsafe_get a.data i) (Array.unsafe_get b.data i))
  done;
  { shape = a.shape; data }

let iteri_flat f t = Array.iteri f t.data

(* The elementwise ops a training step or an Algorithm-2 iteration runs
   are written out as plain float loops: [map]/[map2] call a closure
   per element, which boxes every float it returns. *)
let add a b =
  check_zip a b;
  let ad = a.data and bd = b.data in
  let out = Array.create_float (Array.length ad) in
  for i = 0 to Array.length ad - 1 do
    Array.unsafe_set out i (Array.unsafe_get ad i +. Array.unsafe_get bd i)
  done;
  { shape = a.shape; data = out }

let sub a b =
  check_zip a b;
  let ad = a.data and bd = b.data in
  let out = Array.create_float (Array.length ad) in
  for i = 0 to Array.length ad - 1 do
    Array.unsafe_set out i (Array.unsafe_get ad i -. Array.unsafe_get bd i)
  done;
  { shape = a.shape; data = out }

let mul a b =
  check_zip a b;
  let ad = a.data and bd = b.data in
  let out = Array.create_float (Array.length ad) in
  for i = 0 to Array.length ad - 1 do
    Array.unsafe_set out i (Array.unsafe_get ad i *. Array.unsafe_get bd i)
  done;
  { shape = a.shape; data = out }

let div a b = map2 ( /. ) a b

let neg t =
  let d = t.data in
  let out = Array.create_float (Array.length d) in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set out i (-.Array.unsafe_get d i)
  done;
  { shape = t.shape; data = out }

let scale s t =
  let d = t.data in
  let out = Array.create_float (Array.length d) in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set out i (s *. Array.unsafe_get d i)
  done;
  { shape = t.shape; data = out }

let add_scalar s t = map (fun x -> s +. x) t

let leaky_relu slope t =
  let d = t.data in
  let out = Array.create_float (Array.length d) in
  for i = 0 to Array.length d - 1 do
    let x = Array.unsafe_get d i in
    Array.unsafe_set out i (if x > 0. then x else slope *. x)
  done;
  { shape = t.shape; data = out }

let relu t =
  let d = t.data in
  let out = Array.create_float (Array.length d) in
  for i = 0 to Array.length d - 1 do
    let x = Array.unsafe_get d i in
    Array.unsafe_set out i (if x > 0. then x else 0.)
  done;
  { shape = t.shape; data = out }

let sigmoid t = map (fun x -> 1. /. (1. +. exp (-.x))) t
let tanh_ t = map tanh t
let sqrt_ t = map sqrt t

let sqr t =
  let d = t.data in
  let out = Array.create_float (Array.length d) in
  for i = 0 to Array.length d - 1 do
    let x = Array.unsafe_get d i in
    Array.unsafe_set out i (x *. x)
  done;
  { shape = t.shape; data = out }

let clip ~lo ~hi t =
  map (fun x -> if x < lo then lo else if x > hi then hi else x) t

let axpy ~alpha x y =
  if not (same_shape x y) then invalid_arg "Tensor.axpy: shape mismatch";
  let n = Array.length x.data in
  for i = 0 to n - 1 do
    Array.unsafe_set y.data i
      (Array.unsafe_get y.data i +. (alpha *. Array.unsafe_get x.data i))
  done

let fill t v = Array.fill t.data 0 (Array.length t.data) v

let sum t = Array.fold_left ( +. ) 0. t.data

let mean t =
  let n = Array.length t.data in
  if n = 0 then 0. else sum t /. float_of_int n

let max_elt t = Array.fold_left Float.max neg_infinity t.data
let min_elt t = Array.fold_left Float.min infinity t.data
let fold f acc t = Array.fold_left f acc t.data

let dot a b =
  if not (same_shape a b) then invalid_arg "Tensor.dot: shape mismatch";
  let acc = ref 0. in
  for i = 0 to Array.length a.data - 1 do
    acc := !acc +. (Array.unsafe_get a.data i *. Array.unsafe_get b.data i)
  done;
  !acc

let frobenius t = sqrt (dot t t)

(* ------------------------------------------------------------------ *)
(* Fused gather-GEMM engine.                                           *)
(*                                                                     *)
(* out (m x n) += A (m x k) . B, where B is never materialized: one C  *)
(* entry ([gemm_stubs.c]) reads B(p, j) straight from a source through *)
(* (off, y, x) int descriptors, one triple per row p ([rows]) and per  *)
(* column j ([cols]):                                                  *)
(*   B(p, j) = src[off_p + off_j + y*w + x],  y = y_p + y_j,           *)
(*                                            x = x_p + x_j,           *)
(* when 0 <= y < h and 0 <= x < w, else 0.  A dense row-major (k x n)  *)
(* B is off_p = p*n, x_j = j on one h = 1, w = n plane ([matmul]);     *)
(* every conv lowering below is a gather from an image.  Per 8-column  *)
(* block and slab of at most 256 rows of p, the kernel gathers B into  *)
(* an L1-resident stack buffer and runs a 4-row x 8-column register    *)
(* tile over the band's rows.                                          *)
(*                                                                     *)
(* Bit-exactness contract: for every output element the inner index    *)
(* [p] is accumulated in strictly ascending order in one continuous    *)
(* left-to-right chain of separate multiplies and adds, starting from  *)
(* out's value (slabs continue the chain from the value the previous   *)
(* slab stored; no FMA: the stub is built with -ffp-contract=off,      *)
(* never -ffast-math) — so every ISA variant and any banding across    *)
(* domains produce identical bits, those of the naive loop over p.     *)
(* ------------------------------------------------------------------ *)

(* Rows [i0, i1) x column blocks [b0, b1) (block b is columns 8b ..
   8b+7, the last one partial), in C; the arguments are k n h w a src
   rows cols out off i0 i1 b0 b1, output (i, j) at out[off + i*n + j].  The tile is compiled for avx2 and the
   baseline ISA; module init picks the widest the CPU has.  No
   bounds checks: [gemm_gather] checks every length and the
   descriptors' extent. *)
external gemm_gather_band :
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  float array ->
  float array ->
  int array ->
  int array ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "dco3d_gemm_gather_byte" "dco3d_gemm_gather"
[@@noalloc]

(* The stub reads float arrays as raw doubles, which needs the flat
   float-array representation (the compiler's default). *)
let () =
  if Obj.tag (Obj.repr (Array.make 1 0.)) <> Obj.double_array_tag then
    failwith "Dco3d_tensor: the GEMM kernel needs flat float arrays"

(* The kernel's ISA variants, by index, widest first.  [isa_use i]
   makes variant i the active one and returns the previous index, or
   returns -1 and changes nothing if this CPU lacks variant i. *)
external isa_name : int -> string = "dco3d_gemm_isa_name"
external isa_use : int -> int = "dco3d_gemm_isa_use"
external isa_active : unit -> int = "dco3d_gemm_isa_active"

let gemm_isa_variants =
  let rec from i = match isa_name i with "" -> [] | v -> v :: from (i + 1) in
  from 0

(* Dispatch once: the widest variant this CPU supports (the baseline,
   last, always is). *)
let () =
  let rec pick i = if isa_use i < 0 then pick (i + 1) in
  pick 0

let gemm_isa () = isa_name (isa_active ())

let with_gemm_isa name f =
  let rec index i = function
    | [] -> -1
    | v :: rest -> if v = name then i else index (i + 1) rest
  in
  let was = isa_use (index 0 gemm_isa_variants) in
  if was < 0 then None
  else Some (Fun.protect ~finally:(fun () -> ignore (isa_use was)) f)

(* The C kernel trusts its arguments, so a short array or a descriptor
   that points past [src] is rejected here, before any read: with every
   0 <= y < h and 0 <= x < w, the kernel reads src[off_p + off_j + y*w
   + x] only between min off_p + min off_j and max off_p + max off_j +
   h*w - 1.  No product or sum below can wrap: lengths are compared by
   division, each offset is checked to lie in [0, length src) before
   two are added, h*w <= length src, and every y and x within
   [coord_limit] keeps the kernel's sums and differences of two
   coordinates far from the int range.  O(k + n). *)
let coord_limit = 1 lsl 58

let outside () =
  invalid_arg "Tensor.gemm_gather: descriptors reach outside the source"

(* The largest offset of the first [cnt] triples of [d], after checking
   each offset against [0, len) and each y and x against coord_limit. *)
let max_offset (d : int array) cnt len =
  let hi = ref 0 in
  for i = 0 to cnt - 1 do
    let off = Array.unsafe_get d (3 * i)
    and y = Array.unsafe_get d ((3 * i) + 1)
    and x = Array.unsafe_get d ((3 * i) + 2) in
    if
      off < 0 || off >= len || y < -coord_limit || y > coord_limit
      || x < -coord_limit || x > coord_limit
    then outside ();
    if off > !hi then hi := off
  done;
  !hi

(* [cnt * per <= len] without forming the product (cnt, per >= 0). *)
let fits cnt per len = per = 0 || cnt <= len / per

let check_gather ~m ~k ~n ~h ~w ~off (src : float array) (rows : int array)
    (cols : int array) (a : float array) (out : float array) =
  if
    not
      (fits m k (Array.length a)
      && off <= Array.length out
      && fits m n (Array.length out - off)
      && fits k 3 (Array.length rows)
      && fits n 3 (Array.length cols))
  then invalid_arg "Tensor.gemm_gather: array shorter than its shape";
  (* the kernel reads [src] only with work to do and a non-empty image *)
  if m > 0 && k > 0 && n > 0 && h > 0 && w > 0 then begin
    let len = Array.length src in
    if not (fits h w len) then outside ();
    if max_offset rows k len + max_offset cols n len + (h * w) - 1 >= len then
      outside ()
  end

(* Banding never changes result bits (each output element is computed
   whole by one band), so the split follows the cost alone, by one rule:
   the work is cut into min 64 (MACs / [gemm_par_macs]) chunks, about
   [gemm_par_macs] multiply-adds or more each, and below two chunks the
   kernel is called once.  Chunks are ranges of 8-column blocks that keep
   all m rows, because a call gathers each of its B blocks once: column
   bands gather B exactly once between them, at any job count and
   inline inside a pool worker, whereas a row band gathers all of B
   again.  Only when B is a single block (n <= 8) are the chunks ranges
   of 4-row tiles; a band then re-gathers at most 8k floats for its
   ~[gemm_par_macs] multiply-adds.  The split is a function of the
   shape alone, so at one job the chunks simply run in order. *)
let gemm_gather ?(off = 0) ~m ~k ~n ~h ~w src rows cols a out =
  if m < 0 || k < 0 || n < 0 then
    invalid_arg "Tensor.gemm_gather: negative dimension";
  if off < 0 then invalid_arg "Tensor.gemm_gather: negative offset";
  check_gather ~m ~k ~n ~h ~w ~off src rows cols a out;
  if m > 0 && n > 0 && k > 0 then begin
    let tiles = (m + 3) lsr 2 and blocks = (n + 7) lsr 3 in
    let chunks =
      int_of_float
        (Float.min 64.
           (float m *. float k *. float n /. float gemm_par_macs))
    in
    let band i0 i1 b0 b1 =
      gemm_gather_band k n h w a src rows cols out off i0 i1 b0 b1
    in
    if chunks < 2 then band 0 m 0 blocks
    else if blocks > 1 then
      Pool.for_chunks
        ~chunk:((blocks + chunks - 1) / chunks)
        0 blocks
        (fun b0 b1 -> band 0 m b0 b1)
    else
      Pool.for_chunks
        ~chunk:((tiles + chunks - 1) / chunks)
        0 tiles
        (fun t0 t1 -> band (4 * t0) (min m (4 * t1)) 0 1)
  end

(* Pixels (b, oy, ox) of [imgs] images of [img] floats from [base] on
   an oh x ow grid: off = base + b*img, y = oy*stride, x = ox*stride.  A
   dense matrix's rows are k images of n floats on a 1 x 1 grid, its
   columns one image on a 1 x n grid. *)
let fill_pixels (d : int array) ~base ~imgs ~img ~oh ~ow ~stride =
  let i = ref 0 in
  for b = 0 to imgs - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        Array.unsafe_set d !i (base + (b * img));
        Array.unsafe_set d (!i + 1) (oy * stride);
        Array.unsafe_set d (!i + 2) (ox * stride);
        i := !i + 3
      done
    done
  done

(* [gemm_gather] through descriptors that [rows] and [cols] write into
   borrowed scratch. *)
let gemm_described ~m ~k ~n ~h ~w src ~rows ~cols a out =
  Workspace.with_ints (3 * k) (fun rd ->
      rows rd;
      Workspace.with_ints (3 * n) (fun cd ->
          cols cd;
          gemm_gather ~m ~k ~n ~h ~w src rd cd a out))

let matmul a b =
  if rank a <> 2 || rank b <> 2 then invalid_arg "Tensor.matmul: rank-2 only";
  let m = a.shape.(0) and k = a.shape.(1) in
  let k' = b.shape.(0) and n = b.shape.(1) in
  if k <> k' then invalid_arg "Tensor.matmul: inner dimension mismatch";
  let out = Array.make (m * n) 0. in
  if m > 0 && n > 0 && k > 0 then
    gemm_described ~m ~k ~n ~h:1 ~w:n b.data
      ~rows:(fun d -> fill_pixels d ~base:0 ~imgs:k ~img:n ~oh:1 ~ow:1 ~stride:1)
      ~cols:(fun d -> fill_pixels d ~base:0 ~imgs:1 ~img:0 ~oh:1 ~ow:n ~stride:1)
      a.data out;
  make [| m; n |] out

let transpose2 t =
  if rank t <> 2 then invalid_arg "Tensor.transpose2: rank-2 only";
  let m = t.shape.(0) and n = t.shape.(1) in
  let out = Array.make (m * n) 0. in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      Array.unsafe_set out ((j * m) + i) (Array.unsafe_get t.data ((i * n) + j))
    done
  done;
  make [| n; m |] out

let matvec a x =
  if rank a <> 2 || rank x <> 1 then invalid_arg "Tensor.matvec: bad ranks";
  let m = a.shape.(0) and k = a.shape.(1) in
  if x.shape.(0) <> k then invalid_arg "Tensor.matvec: dimension mismatch";
  let out = Array.make m 0. in
  let row_dot i =
    let row = i * k in
    let acc = ref 0. in
    for j = 0 to k - 1 do
      acc :=
        !acc +. (Array.unsafe_get a.data (row + j) *. Array.unsafe_get x.data j)
    done;
    out.(i) <- !acc
  in
  if m * k < matvec_par_macs then
    for i = 0 to m - 1 do
      row_dot i
    done
  else Pool.parallel_for 0 m row_dot;
  make [| m |] out

(* ------------------------------------------------------------------ *)
(* Convolution kernels over rank-4 [n; c; h; w] activations.           *)
(*                                                                     *)
(* Every pass is one im2col lowering onto the gather-GEMM kernel      *)
(* above, so each output element is one chain of separately rounded   *)
(* multiplies and adds from +0., in a fixed order of its terms, with   *)
(* the bias (if any) added after the last one:                         *)
(*   conv2d            taps (c, ky, kx) ascending                      *)
(*   backward_input    (o, ky, kx) ascending                           *)
(*   backward_weight   output pixels (oy, ox) ascending, one chain per *)
(*                     sample; the samples' chains are then added in   *)
(*                     ascending sample order                          *)
(*   conv2d_transpose  c ascending, then source pixel (iy, ix)         *)
(*                     ascending (taps ky, kx descending)              *)
(* Only terms whose source pixel lies inside the input count: the      *)
(* zeros the lowering gathers for padding and stride gaps add +/-0.,   *)
(* which never changes a chain that began at +0.  The tests' Conv_ref  *)
(* spells each order out as a plain loop nest, one sample at a time.   *)
(*                                                                     *)
(* Every lowering's B is one gather from a source image, described by *)
(* (off, y, x) descriptors that nested loops fill ([fill_taps],        *)
(* [fill_pixels]) and read by the kernel block by block, so no im2col  *)
(* matrix is ever stored and no element needs a division.  The        *)
(* passes that walk dilated geometry (transposes, and backward_input   *)
(* at stride s) run as s^2 stride-1 phase GEMMs, one per output        *)
(* residue class, over only the taps that reach it ([phase_gemm]), so  *)
(* no GEMM grinds through stride zeros.  Where a sample's output is    *)
(* one contiguous block (the forward, and every stride-1 phase pass),  *)
(* each sample is its own GEMM that writes that block in place, at an  *)
(* output offset; the strided phases take the samples as extra GEMM    *)
(* columns.  Neither reorders an accumulation: each sample's bits are  *)
(* those of a batch of one.  Hot kernels take annotated               *)
(* [float array]s: a helper that only moves floats is otherwise        *)
(* inferred polymorphic and boxes every element it touches.            *)
(* ------------------------------------------------------------------ *)

let check_rank4 name t =
  if rank t <> 4 then invalid_arg (name ^ ": expected a rank-4 tensor")

let shape_string s =
  "[" ^ String.concat "; " (Array.to_list (Array.map string_of_int s)) ^ "]"

let shape_mismatch name what a what' b =
  invalid_arg
    (Printf.sprintf "%s: %s %s does not match %s %s" name what (shape_string a)
       what' (shape_string b))

(* Every conv entry's geometry check.  The unchecked kernels rely on
   pad >= 0: the stride-phase lowering sizes its scratch for the
   residues (r + pad) mod s in [0, s). *)
let check_stride_pad name ~stride ~pad =
  if stride < 1 then invalid_arg (name ^ ": stride must be >= 1");
  if pad < 0 then invalid_arg (name ^ ": pad must be >= 0")

(* Checks shared by the forward entries: weight axis [in_axis] must
   equal the input's channel count, and a bias must have one entry per
   output channel (weight axis [out_axis]).  Returns that count. *)
let check_conv_args name ~stride ~pad ~in_channels ~in_axis ~out_axis ~weight
    ~bias =
  check_stride_pad name ~stride ~pad;
  if rank weight <> 4 then invalid_arg (name ^ ": weight must be rank 4");
  if weight.shape.(in_axis) <> in_channels then
    invalid_arg (name ^ ": channel mismatch between input and weight");
  let co = weight.shape.(out_axis) in
  (match bias with
  | Some b when rank b <> 1 || b.shape.(0) <> co ->
      shape_mismatch name "bias shape" b.shape "weight shape" weight.shape
  | _ -> ());
  co

(* Kernel taps (c, ky, kx), c-major over [chans] planes of [plane]
   floats from [base]: off = base + c*plane, y = ky - pad,
   x = kx - pad. *)
let fill_taps (d : int array) ~base ~chans ~plane ~kh ~kw ~pad =
  let i = ref 0 in
  for c = 0 to chans - 1 do
    for ky = 0 to kh - 1 do
      for kx = 0 to kw - 1 do
        Array.unsafe_set d !i (base + (c * plane));
        Array.unsafe_set d (!i + 1) (ky - pad);
        Array.unsafe_set d (!i + 2) (kx - pad);
        i := !i + 3
      done
    done
  done

(* The bias of a finished contraction, in place: bias.(o) onto every
   pixel of channel o of out ([n; co; hw]). *)
let add_bias (out : float array) ~n ~co ~hw bias =
  match bias with
  | None -> ()
  | Some b ->
      for plane = 0 to (n * co) - 1 do
        let bv = Array.unsafe_get b.data (plane mod co) in
        let base = plane * hw in
        for i = base to base + hw - 1 do
          Array.unsafe_set out i (Array.unsafe_get out i +. bv)
        done
      done

(* ---- Stride-phase lowering ---------------------------------------- *)
(* A transposed convolution, and the input gradient of a strided one,  *)
(* gather in dilated geometry: output row oy reads source row          *)
(* (oy + pad - ky) / s only where that division is exact.  Writing     *)
(* oy = ry + s*ty (phase ry, 0 <= ry < s), exactly the taps with       *)
(* ky = ry + pad (mod s) qualify, each reading source row              *)
(* ty + (ry + pad - ky) / s: a stride-1 gather.  So each of the s^2    *)
(* phases (ry, rx) is one GEMM over its own taps and its own pixel     *)
(* grid, whose columns scatter to (ry + s*ty, rx + s*tx).  Every       *)
(* output pixel lies in exactly one phase, a tap a phase drops reaches *)
(* none of its pixels, and the taps keep the pass's order (ky, kx      *)
(* descending when [flip]), so each output's chain is the one the      *)
(* section comment gives.                                              *)

(* Phase (ry, rx)'s taps (c, ky, kx): ky runs over ky0, ky0 + s, ...
   (nky of them, descending when [flip]), kx likewise.  Tap p fills
   column p of A (m x kp; row i from wd[c*chan_stride + i*row_stride +
   ky*kw + kx]) and row descriptor p: (c*plane, (ry + pad - ky) / s,
   (rx + pad - kx) / s), the divisions exact. *)
let fill_phase_taps (a : float array) (rows : int array) (wd : float array) ~m
    ~kp ~chans ~plane ~chan_stride ~row_stride ~kw ~s ~flip ~pad ~ry ~rx ~ky0
    ~nky ~kx0 ~nkx =
  let tap k0 cnt t = if flip then k0 + (s * (cnt - 1 - t)) else k0 + (s * t) in
  let p = ref 0 in
  for c = 0 to chans - 1 do
    for ty = 0 to nky - 1 do
      let ky = tap ky0 nky ty in
      for tx = 0 to nkx - 1 do
        let kx = tap kx0 nkx tx in
        let wbase = (c * chan_stride) + (ky * kw) + kx in
        for i = 0 to m - 1 do
          Array.unsafe_set a ((i * kp) + !p)
            (Array.unsafe_get wd (wbase + (i * row_stride)))
        done;
        let d = 3 * !p in
        Array.unsafe_set rows d (c * plane);
        Array.unsafe_set rows (d + 1) ((ry + pad - ky) / s);
        Array.unsafe_set rows (d + 2) ((rx + pad - kx) / s);
        incr p
      done
    done
  done

(* Phase (ry, rx)'s GEMM result g ([m; n; ohp; owp]) to its pixels
   (ry + s*ty, rx + s*tx) of out ([n; m; oh; ow]), plus the bias. *)
let scatter_phase (g : float array) (out : float array) ~m ~n ~oh ~ow ~s ~ry
    ~rx ~ohp ~owp bias =
  for b = 0 to n - 1 do
    for i = 0 to m - 1 do
      let gbase = ((i * n) + b) * ohp * owp in
      let obase = (((b * m) + i) * oh * ow) + (ry * ow) + rx in
      match bias with
      | None ->
          for ty = 0 to ohp - 1 do
            for tx = 0 to owp - 1 do
              Array.unsafe_set out
                (obase + (s * ((ty * ow) + tx)))
                (Array.unsafe_get g (gbase + (ty * owp) + tx))
            done
          done
      | Some bt ->
          let bv = Array.unsafe_get bt.data i in
          for ty = 0 to ohp - 1 do
            for tx = 0 to owp - 1 do
              Array.unsafe_set out
                (obase + (s * ((ty * ow) + tx)))
                (Array.unsafe_get g (gbase + (ty * owp) + tx) +. bv)
            done
          done
    done
  done

(* [n] images of [chans] source planes (sh x sw) in [src]; output
   [n; m; oh; ow] into [out], every element written.  Weight indexing
   as in [fill_phase_taps].  At stride 1 the one phase covers every
   output pixel, so each sample's GEMM writes its [m; oh; ow] block of
   [out] in place.  Otherwise the scratch is borrowed once, at the
   largest phase's size, not per phase through [gemm_described]: s^2
   rounds of borrows and closures would cost a k2/s2 transpose more
   minor words than the kernels' allocation budget. *)
let phase_gemm ~stride:s ~pad ~kh ~kw ~flip ~chans ~m ~n ~sh ~sw ~oh ~ow
    ~chan_stride ~row_stride (src : float array) (wd : float array) bias
    (out : float array) =
  if s = 1 then begin
    let kp = chans * kh * kw and hw = oh * ow and img = chans * sh * sw in
    Workspace.with_ints (3 * kp) @@ fun rows ->
    Workspace.with_ints (3 * hw) @@ fun cols ->
    Workspace.with_floats (m * kp) @@ fun a ->
    Array.fill out 0 (n * m * hw) 0.;
    fill_phase_taps a rows wd ~m ~kp ~chans ~plane:(sh * sw) ~chan_stride
      ~row_stride ~kw ~s ~flip ~pad ~ry:0 ~rx:0 ~ky0:0 ~nky:kh ~kx0:0 ~nkx:kw;
    for b = 0 to n - 1 do
      fill_pixels cols ~base:(b * img) ~imgs:1 ~img:0 ~oh ~ow ~stride:1;
      gemm_gather ~off:(b * m * hw) ~m ~k:kp ~n:hw ~h:sh ~w:sw src rows cols a
        out
    done;
    add_bias out ~n ~co:m ~hw bias
  end
  else
  let cdiv x = (x + s - 1) / s in
  let count r x = if r < x then ((x - 1 - r) / s) + 1 else 0 in
  let kmax = chans * cdiv kh * cdiv kw and cmax = n * cdiv oh * cdiv ow in
  Workspace.with_ints (3 * kmax) @@ fun rows ->
  Workspace.with_ints (3 * cmax) @@ fun cols ->
  Workspace.with_floats (m * kmax) @@ fun a ->
  Workspace.with_floats (m * cmax) @@ fun g ->
  for ry = 0 to s - 1 do
    for rx = 0 to s - 1 do
      let ky0 = (ry + pad) mod s and kx0 = (rx + pad) mod s in
      let nky = count ky0 kh and nkx = count kx0 kw in
      let ohp = count ry oh and owp = count rx ow in
      let kp = chans * nky * nkx and ncol = n * ohp * owp in
      if ncol > 0 then begin
        Array.fill g 0 (m * ncol) 0.;
        if kp > 0 then begin
          fill_phase_taps a rows wd ~m ~kp ~chans ~plane:(sh * sw)
            ~chan_stride ~row_stride ~kw ~s ~flip ~pad ~ry ~rx ~ky0 ~nky ~kx0
            ~nkx;
          fill_pixels cols ~base:0 ~imgs:n ~img:(chans * sh * sw) ~oh:ohp
            ~ow:owp ~stride:1;
          gemm_gather ~m ~k:kp ~n:ncol ~h:sh ~w:sw src rows cols a g
        end;
        scatter_phase g out ~m ~n ~oh ~ow ~s ~ry ~rx ~ohp ~owp bias
      end
    done
  done

(* The output shape [n; co; oh; ow] a conv of an [n; ci; h; w] input
   produces, with [co; kh; kw] from the weight; raises when empty. *)
let conv_output_shape name ~stride ~pad ~n ~co ~h ~w ~kh ~kw =
  check_stride_pad name ~stride ~pad;
  let oh = ((h + (2 * pad) - kh) / stride) + 1 in
  let ow = ((w + (2 * pad) - kw) / stride) + 1 in
  if oh <= 0 || ow <= 0 then invalid_arg (name ^ ": empty output");
  [| n; co; oh; ow |]

(* Forward lowering, per sample b: A = weight as (co x ci*kh*kw) — its
   natural layout — and B[(c,ky,kx), (oy,ox)] =
   x[b, c, oy*s + ky - pad, ox*s + kx - pad] (or 0. outside the input),
   written straight into sample b's [co; oh; ow] block of the result.
   The inner index p ascends over (c, ky, kx). *)
let conv2d ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  let name = "Tensor.conv2d" in
  check_rank4 name x;
  let n = x.shape.(0) and ci = x.shape.(1) in
  let h = x.shape.(2) and w = x.shape.(3) in
  let co =
    check_conv_args name ~stride ~pad ~in_channels:ci ~in_axis:1 ~out_axis:0
      ~weight ~bias
  in
  let kh = weight.shape.(2) and kw = weight.shape.(3) in
  let out_shape = conv_output_shape name ~stride ~pad ~n ~co ~h ~w ~kh ~kw in
  let oh = out_shape.(2) and ow = out_shape.(3) in
  let k = ci * kh * kw and hw = oh * ow in
  let out = Array.make (n * co * hw) 0. in
  (Workspace.with_ints (3 * k) @@ fun rows ->
   Workspace.with_ints (3 * hw) @@ fun cols ->
   fill_pixels cols ~base:0 ~imgs:1 ~img:0 ~oh ~ow ~stride;
   for b = 0 to n - 1 do
     fill_taps rows ~base:(b * ci * h * w) ~chans:ci ~plane:(h * w) ~kh ~kw
       ~pad;
     gemm_gather ~off:(b * co * hw) ~m:co ~k ~n:hw ~h ~w x.data rows cols
       weight.data out
   done);
  add_bias out ~n ~co ~hw bias;
  make out_shape out

(* The shapes of a backward pass: [input_shape] is [n; ci; h; w], its
   channels those of the weight ([co; ci; kh; kw]), and the gradient
   [gout] has the output shape those imply.  Returns that shape. *)
let check_backward name ~stride ~pad ~input_shape ~weight_shape gout =
  check_rank4 name gout;
  if
    Array.length input_shape <> 4
    || Array.length weight_shape <> 4
    || weight_shape.(1) <> input_shape.(1)
  then shape_mismatch name "input shape" input_shape "weight shape" weight_shape;
  let expected =
    conv_output_shape name ~stride ~pad ~n:input_shape.(0) ~co:weight_shape.(0)
      ~h:input_shape.(2) ~w:input_shape.(3) ~kh:weight_shape.(2)
      ~kw:weight_shape.(3)
  in
  if gout.shape <> expected then
    shape_mismatch name "gradient shape" gout.shape "output shape" expected;
  expected

(* Input-gradient lowering.  A plain col2im scatter would re-associate
   the sums, so instead the gradient is computed as a GEMM over *input*
   pixels, one per stride phase: A[c, (o,ky,kx)] = w[o,c,ky,kx] and
   B[(o,ky,kx), (b,iy,ix)] = gout[b, o, (iy+pad-ky)/s, (ix+pad-kx)/s]
   when that division is exact and in range, else 0.  The inner index
   p ascends over (o, ky, kx). *)
let conv2d_backward_input ?(stride = 1) ?(pad = 0) ~input_shape ~weight gout =
  let name = "Tensor.conv2d_backward_input" in
  if rank weight <> 4 then invalid_arg (name ^ ": weight must be rank 4");
  let out_shape =
    check_backward name ~stride ~pad ~input_shape ~weight_shape:weight.shape
      gout
  in
  let n = input_shape.(0) and ci = input_shape.(1) in
  let h = input_shape.(2) and w = input_shape.(3) in
  let kh = weight.shape.(2) and kw = weight.shape.(3) in
  let gin = Array.create_float (n * ci * h * w) in
  phase_gemm ~stride ~pad ~kh ~kw ~flip:false ~chans:weight.shape.(0) ~m:ci ~n
    ~sh:out_shape.(2) ~sw:out_shape.(3) ~oh:h ~ow:w
    ~chan_stride:(ci * kh * kw) ~row_stride:(kh * kw) gout.data weight.data None
    gin;
  make input_shape gin

(* Weight-gradient lowering, per sample b: A = gout[b] as (co x oh*ow)
   — its natural layout — and B[(oy,ox), (c,ky,kx)] =
   x[b, c, oy*s+ky-pad, ox*s+kx-pad] or 0.: the forward gather with the
   roles of rows and columns exchanged.  The inner index p ascends over
   (oy, ox).  Sample 0's GEMM runs into the result, every later one into
   scratch that is then added in, so a sample's chain never continues
   another's. *)
let conv2d_backward_weight ?(stride = 1) ?(pad = 0) ~input ~weight_shape gout =
  let name = "Tensor.conv2d_backward_weight" in
  check_rank4 name input;
  let out_shape =
    check_backward name ~stride ~pad ~input_shape:input.shape ~weight_shape
      gout
  in
  let n = input.shape.(0) and ci = input.shape.(1) in
  let h = input.shape.(2) and w = input.shape.(3) in
  let co = weight_shape.(0) and kh = weight_shape.(2) in
  let kw = weight_shape.(3) in
  let oh = out_shape.(2) and ow = out_shape.(3) in
  let kdim = ci * kh * kw and ohw = oh * ow in
  let gw = Array.make (co * kdim) 0. in
  let sample b (a : float array) (out : float array) =
    gemm_described ~m:co ~k:ohw ~n:kdim ~h ~w input.data
      ~rows:(fun d -> fill_pixels d ~base:0 ~imgs:1 ~img:0 ~oh ~ow ~stride)
      ~cols:(fun d ->
        fill_taps d ~base:(b * ci * h * w) ~chans:ci ~plane:(h * w) ~kh ~kw
          ~pad)
      a out
  in
  if n > 0 then sample 0 gout.data gw;
  if n > 1 then begin
    Workspace.with_floats (co * ohw) @@ fun a ->
    Workspace.with_floats (co * kdim) @@ fun g ->
    for b = 1 to n - 1 do
      Array.blit gout.data (b * co * ohw) a 0 (co * ohw);
      Array.fill g 0 (co * kdim) 0.;
      sample b a g;
      for i = 0 to (co * kdim) - 1 do
        Array.unsafe_set gw i (Array.unsafe_get gw i +. Array.unsafe_get g i)
      done
    done
  end;
  make weight_shape gw

(* Transpose lowering: a transposed convolution is a stride-dilated
   correlation with the kernel flipped, so per stride phase
   A[o, (c,ky,kx)] = w[c,o,ky,kx] and B[(c,ky,kx), (b,oy,ox)] =
   x[b, c, (oy+pad-ky)/s, (ox+pad-kx)/s] when exact and in range, else
   0.  Taking the taps with ky and kx descending makes p ascend over c,
   then iy, then ix.  The bias is added after the full contraction. *)
let conv2d_transpose ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  let name = "Tensor.conv2d_transpose" in
  check_rank4 name x;
  let n = x.shape.(0) and ci = x.shape.(1) in
  let h = x.shape.(2) and w = x.shape.(3) in
  let co =
    check_conv_args name ~stride ~pad ~in_channels:ci ~in_axis:0 ~out_axis:1
      ~weight ~bias
  in
  let kh = weight.shape.(2) and kw = weight.shape.(3) in
  let oh = ((h - 1) * stride) - (2 * pad) + kh in
  let ow = ((w - 1) * stride) - (2 * pad) + kw in
  if oh <= 0 || ow <= 0 then invalid_arg (name ^ ": empty output");
  let out = Array.create_float (n * co * oh * ow) in
  phase_gemm ~stride ~pad ~kh ~kw ~flip:true ~chans:ci ~m:co ~n ~sh:h ~sw:w ~oh
    ~ow ~chan_stride:(co * kh * kw) ~row_stride:(kh * kw) x.data weight.data
    bias out;
  make [| n; co; oh; ow |] out

(* 2x2, stride-2 max pooling; pooling is per channel, so the batch and
   channel axes fold into one run of planes. *)
let maxpool2 x =
  check_rank4 "Tensor.maxpool2" x;
  let n = x.shape.(0) and c = x.shape.(1) in
  let h = x.shape.(2) and w = x.shape.(3) in
  if h mod 2 <> 0 || w mod 2 <> 0 then
    invalid_arg "Tensor.maxpool2: spatial dimensions must be even";
  let oh = h / 2 and ow = w / 2 in
  let xd = x.data in
  let out = Array.make (n * c * oh * ow) 0. in
  let arg = Array.make (n * c * oh * ow) 0 in
  for plane = 0 to (n * c) - 1 do
    let xbase = plane * h * w in
    let obase = plane * oh * ow in
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        (* candidates i0, i0+1, i0+w, i0+w+1; the first strict
           maximum wins *)
        let i0 = xbase + (2 * oy * w) + (2 * ox) in
        let best = ref i0 in
        for k = 1 to 3 do
          let i = i0 + (k land 1) + (if k >= 2 then w else 0) in
          if Array.unsafe_get xd i > Array.unsafe_get xd !best then best := i
        done;
        out.(obase + (oy * ow) + ox) <- Array.unsafe_get xd !best;
        arg.(obase + (oy * ow) + ox) <- !best
      done
    done
  done;
  (make [| n; c; oh; ow |] out, arg)

let maxpool2_backward ~input_shape argmax gout =
  let gin = Array.make (numel_of_shape input_shape) 0. in
  Array.iteri (fun i src -> gin.(src) <- gin.(src) +. gout.data.(i)) argmax;
  make input_shape gin

(* ------------------------------------------------------------------ *)
(* Batch axis.                                                         *)
(* ------------------------------------------------------------------ *)

let stack ts =
  if Array.length ts = 0 then invalid_arg "Tensor.stack: empty batch";
  let s0 = ts.(0).shape in
  Array.iter
    (fun t ->
      if t.shape <> s0 then invalid_arg "Tensor.stack: shape mismatch")
    ts;
  let per = Array.length ts.(0).data in
  let n = Array.length ts in
  let out = Array.make (n * per) 0. in
  Array.iteri (fun i t -> Array.blit t.data 0 out (i * per) per) ts;
  make (Array.append [| n |] s0) out

let unstack t =
  if rank t < 1 then invalid_arg "Tensor.unstack: rank must be >= 1";
  let n = t.shape.(0) in
  let rest = Array.sub t.shape 1 (rank t - 1) in
  let per = numel_of_shape rest in
  Array.init n (fun i -> make rest (Array.sub t.data (i * per) per))

(* ------------------------------------------------------------------ *)
(* Map utilities.                                                      *)
(* ------------------------------------------------------------------ *)

let resize_nearest m oh ow =
  if rank m <> 2 then invalid_arg "Tensor.resize_nearest: rank-2 only";
  if oh <= 0 || ow <= 0 then invalid_arg "Tensor.resize_nearest: empty target";
  let h = m.shape.(0) and w = m.shape.(1) in
  let out = Array.make (oh * ow) 0. in
  for oy = 0 to oh - 1 do
    let iy = min (h - 1) (oy * h / oh) in
    for ox = 0 to ow - 1 do
      let ix = min (w - 1) (ox * w / ow) in
      out.((oy * ow) + ox) <- m.data.((iy * w) + ix)
    done
  done;
  make [| oh; ow |] out

(* [t] as (n, c, h, w): a rank-2 map is one channel of one sample, a
   rank-3 stack one sample, a rank-4 tensor a batch. *)
let nchw name t =
  match t.shape with
  | [| h; w |] -> (1, 1, h, w)
  | [| c; h; w |] -> (1, c, h, w)
  | [| n; c; h; w |] -> (n, c, h, w)
  | _ -> invalid_arg (name ^ ": expected a rank-2, rank-3 or rank-4 tensor")

let concat_channels ts =
  let name = "Tensor.concat_channels" in
  match ts with
  | [] -> invalid_arg (name ^ ": empty list")
  | first :: _ ->
      let batched = rank first = 4 in
      let n, _, h, w = nchw name first in
      let ctot =
        List.fold_left
          (fun acc t ->
            let n', c, h', w' = nchw name t in
            if (rank t = 4) <> batched || n' <> n || h' <> h || w' <> w then
              invalid_arg (name ^ ": batch/spatial mismatch");
            acc + c)
          0 ts
      in
      let hw = h * w in
      let out = Array.make (n * ctot * hw) 0. in
      for b = 0 to n - 1 do
        let pos = ref (b * ctot * hw) in
        List.iter
          (fun t ->
            let span = Array.length t.data / n in
            Array.blit t.data (b * span) out !pos span;
            pos := !pos + span)
          ts
      done;
      make (if batched then [| n; ctot; h; w |] else [| ctot; h; w |]) out

let slice_channels t lo k =
  let name = "Tensor.slice_channels" in
  let n, c, h, w = nchw name t in
  if lo < 0 || k < 0 || lo + k > c then invalid_arg (name ^ ": out of range");
  let hw = h * w in
  let out = Array.make (n * k * hw) 0. in
  for b = 0 to n - 1 do
    Array.blit t.data (((b * c) + lo) * hw) out (b * k * hw) (k * hw)
  done;
  make (if rank t = 4 then [| n; k; h; w |] else [| k; h; w |]) out

let channel t c =
  if rank t = 4 then invalid_arg "Tensor.channel: rank-2 or rank-3 only";
  let s = slice_channels t c 1 in
  reshape s [| s.shape.(1); s.shape.(2) |]

let rot90_2 m =
  let h = m.shape.(0) and w = m.shape.(1) in
  (* counter-clockwise: out[w-1-j][i] = in[i][j] -> out has shape [w; h] *)
  let out = Array.make (w * h) 0. in
  for i = 0 to h - 1 do
    for j = 0 to w - 1 do
      out.(((w - 1 - j) * h) + i) <- m.data.((i * w) + j)
    done
  done;
  make [| w; h |] out

let rot90 t =
  match rank t with
  | 2 -> rot90_2 t
  | 3 ->
      let c = t.shape.(0) in
      concat_channels (List.init c (fun ch -> rot90_2 (channel t ch)))
  | _ -> invalid_arg "Tensor.rot90: rank-2 or rank-3 only"

let flip_last_axis t =
  let r = rank t in
  let w = t.shape.(r - 1) in
  let rows = Array.length t.data / w in
  let out = Array.make (Array.length t.data) 0. in
  for i = 0 to rows - 1 do
    for j = 0 to w - 1 do
      out.((i * w) + (w - 1 - j)) <- t.data.((i * w) + j)
    done
  done;
  make (Array.copy t.shape) out

let flip_h t =
  match rank t with
  | 2 | 3 -> flip_last_axis t
  | _ -> invalid_arg "Tensor.flip_h: rank-2 or rank-3 only"

let approx_equal ?(eps = 1e-9) a b =
  same_shape a b
  &&
  let ok = ref true in
  for i = 0 to Array.length a.data - 1 do
    (* written so that a NaN difference fails the test *)
    if not (abs_float (a.data.(i) -. b.data.(i)) <= eps) then ok := false
  done;
  !ok

let pp ppf t =
  let shape_s =
    t.shape |> Array.to_list |> List.map string_of_int |> String.concat "x"
  in
  let n = Array.length t.data in
  let preview = Array.sub t.data 0 (min n 8) in
  Format.fprintf ppf "tensor[%s](%a%s)" shape_s
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf v -> Format.fprintf ppf "%.4g" v))
    (Array.to_list preview)
    (if n > 8 then ", ..." else "")
