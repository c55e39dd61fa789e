let cholesky a =
  if Tensor.rank a <> 2 || Tensor.dim a 0 <> Tensor.dim a 1 then
    invalid_arg "Linalg.cholesky: square rank-2 tensor expected";
  let n = Tensor.dim a 0 in
  let l = Tensor.zeros [| n; n |] in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (Tensor.get2 a i j) in
      for k = 0 to j - 1 do
        s := !s -. (Tensor.get2 l i k *. Tensor.get2 l j k)
      done;
      if i = j then begin
        if !s <= 0. then failwith "Linalg.cholesky: matrix not positive definite";
        Tensor.set2 l i j (sqrt !s)
      end
      else Tensor.set2 l i j (!s /. Tensor.get2 l j j)
    done
  done;
  l

let solve_lower l b =
  let n = Tensor.dim l 0 in
  let x = Array.make n 0. in
  for i = 0 to n - 1 do
    let s = ref (Tensor.get_flat b i) in
    for k = 0 to i - 1 do
      s := !s -. (Tensor.get2 l i k *. x.(k))
    done;
    x.(i) <- !s /. Tensor.get2 l i i
  done;
  Tensor.of_array1 x

let solve_upper u b =
  let n = Tensor.dim u 0 in
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let s = ref (Tensor.get_flat b i) in
    for k = i + 1 to n - 1 do
      s := !s -. (Tensor.get2 u i k *. x.(k))
    done;
    x.(i) <- !s /. Tensor.get2 u i i
  done;
  Tensor.of_array1 x

let solve_lower_transposed l b =
  let n = Tensor.dim l 0 in
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let s = ref (Tensor.get_flat b i) in
    for k = i + 1 to n - 1 do
      s := !s -. (Tensor.get2 l k i *. x.(k))
    done;
    x.(i) <- !s /. Tensor.get2 l i i
  done;
  Tensor.of_array1 x

let cholesky_solve l b =
  let y = solve_lower l b in
  solve_lower_transposed l y

type cg_status = Converged | Max_iter | Breakdown

let string_of_cg_status = function
  | Converged -> "converged"
  | Max_iter -> "max_iter"
  | Breakdown -> "breakdown"

let conjugate_gradient ?(max_iter = 200) ?(tol = 1e-8) ?iterations_out
    ?status_out matvec b x0 =
  let n = Array.length b in
  let x = Array.copy x0 in
  (* [ap] first holds A x0, then A p each iteration: with [r] and [p]
     these are the solver's only buffers, allocated once per solve *)
  let ap = Array.make n 0. in
  matvec x ap;
  let r = Array.init n (fun i -> b.(i) -. ap.(i)) in
  let p = Array.copy r in
  let dot u v =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (u.(i) *. v.(i))
    done;
    !acc
  in
  let bnorm = sqrt (dot b b) in
  let target = tol *. Float.max bnorm 1e-30 in
  let rs = ref (dot r r) in
  let iter = ref 0 in
  let broke_down = ref false in
  while (not !broke_down) && !iter < max_iter && sqrt !rs > target do
    matvec p ap;
    let denom = dot p ap in
    if denom <= 0. then broke_down := true (* lost positive-definiteness *)
    else begin
      let alpha = !rs /. denom in
      for i = 0 to n - 1 do
        x.(i) <- x.(i) +. (alpha *. p.(i));
        r.(i) <- r.(i) -. (alpha *. ap.(i))
      done;
      let rs' = dot r r in
      let beta = rs' /. !rs in
      for i = 0 to n - 1 do
        p.(i) <- r.(i) +. (beta *. p.(i))
      done;
      rs := rs';
      incr iter
    end
  done;
  let status =
    if !broke_down then Breakdown
    else if sqrt !rs <= target then Converged
    else Max_iter
  in
  (match iterations_out with Some r -> r := !iter | None -> ());
  (match status_out with Some s -> s := status | None -> ());
  x
