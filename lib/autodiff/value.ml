module T = Dco3d_tensor.Tensor
module Obs = Dco3d_obs.Obs

type t = {
  id : int;
  data : T.t;
  mutable grad : T.t option;
  requires_grad : bool;
  parents : t list;
  (* [backward gout] returns, per parent, a thunk computing that
     parent's gradient (or [None] when it gets none).  {!backward}
     forces only the thunks of parents that lead to a wanted leaf. *)
  backward : (T.t -> (unit -> T.t) option list) option;
}

let counter = Atomic.make 0
let next_id () = Atomic.fetch_and_add counter 1 + 1

let data v = v.data
let requires_grad v = v.requires_grad
let shape v = T.shape v.data
let numel v = T.numel v.data

let grad v =
  match v.grad with Some g -> g | None -> T.zeros (T.shape v.data)

let const data =
  { id = next_id (); data; grad = None; requires_grad = false; parents = []; backward = None }

let param data =
  { id = next_id (); data; grad = None; requires_grad = true; parents = []; backward = None }

let scalar x = const (T.scalar x)

let node data parents backward =
  let requires_grad = List.exists (fun p -> p.requires_grad) parents in
  if requires_grad then
    { id = next_id (); data; grad = None; requires_grad; parents;
      backward = Some backward }
  else const data

let custom ~data ~parents ~backward =
  node data parents (fun g ->
      List.map (Option.map (fun gp () -> gp)) (backward g))

(* ------------------------------------------------------------------ *)
(* Elementwise                                                         *)
(* ------------------------------------------------------------------ *)

let add a b =
  node (T.add a.data b.data) [ a; b ] (fun g ->
      [ Some (fun () -> g); Some (fun () -> g) ])

let sub a b =
  node (T.sub a.data b.data) [ a; b ] (fun g ->
      [ Some (fun () -> g); Some (fun () -> T.neg g) ])

let mul a b =
  node (T.mul a.data b.data) [ a; b ] (fun g ->
      [ Some (fun () -> T.mul g b.data); Some (fun () -> T.mul g a.data) ])

let div a b =
  let y = T.div a.data b.data in
  node y [ a; b ] (fun g ->
      let ga () = T.map2 (fun gv bv -> gv /. bv) g b.data in
      (* d(a/b)/db = -a / b^2 *)
      let gb () =
        T.map2 (fun gv yv_over_b -> gv *. yv_over_b)
          g
          (T.map2 (fun yv bv -> -.yv /. bv) y b.data)
      in
      [ Some ga; Some gb ])

let neg a = node (T.neg a.data) [ a ] (fun g -> [ Some (fun () -> T.neg g) ])

let scale s a =
  node (T.scale s a.data) [ a ] (fun g -> [ Some (fun () -> T.scale s g) ])

let add_scalar s a = node (T.add_scalar s a.data) [ a ] (fun g -> [ Some (fun () -> g) ])

(* The backward passes below are plain float loops over [g] and the
   forward input, like the T kernels they pair with: a [T.map2] closure
   boxes every float it returns.  [g] always has the node's shape (the
   backward pass checks every accumulation), which here is the
   input's. *)
let relu a =
  let y = T.relu a.data in
  node y [ a ] (fun g ->
      [ Some (fun () ->
            let gd = g.T.data and xd = a.data.T.data in
            let out = Array.create_float (Array.length xd) in
            for i = 0 to Array.length xd - 1 do
              Array.unsafe_set out i
                (if Array.unsafe_get xd i > 0. then Array.unsafe_get gd i else 0.)
            done;
            T.make (T.shape a.data) out) ])

let leaky_relu slope a =
  let y = T.leaky_relu slope a.data in
  node y [ a ] (fun g ->
      [ Some (fun () ->
            let gd = g.T.data and xd = a.data.T.data in
            let out = Array.create_float (Array.length xd) in
            for i = 0 to Array.length xd - 1 do
              let gv = Array.unsafe_get gd i in
              Array.unsafe_set out i
                (if Array.unsafe_get xd i > 0. then gv else slope *. gv)
            done;
            T.make (T.shape a.data) out) ])

let sigmoid a =
  let y = T.sigmoid a.data in
  node y [ a ] (fun g ->
      [ Some (fun () -> T.map2 (fun gv yv -> gv *. yv *. (1. -. yv)) g y) ])

let tanh_ a =
  let y = T.tanh_ a.data in
  node y [ a ] (fun g ->
      [ Some (fun () -> T.map2 (fun gv yv -> gv *. (1. -. (yv *. yv))) g y) ])

let sqr a =
  node (T.sqr a.data) [ a ] (fun g ->
      [ Some (fun () ->
            let gd = g.T.data and xd = a.data.T.data in
            let out = Array.create_float (Array.length xd) in
            for i = 0 to Array.length xd - 1 do
              Array.unsafe_set out i
                (2. *. Array.unsafe_get gd i *. Array.unsafe_get xd i)
            done;
            T.make (T.shape a.data) out) ])

let sqrt_ a =
  let y = T.sqrt_ a.data in
  node y [ a ] (fun g ->
      [ Some (fun () -> T.map2 (fun gv yv -> gv /. (2. *. Float.max yv 1e-12)) g y) ])

(* ------------------------------------------------------------------ *)
(* Linear algebra                                                      *)
(* ------------------------------------------------------------------ *)

let matmul a b =
  node (T.matmul a.data b.data) [ a; b ] (fun g ->
      [
        Some (fun () -> T.matmul g (T.transpose2 b.data));
        Some (fun () -> T.matmul (T.transpose2 a.data) g);
      ])

let sum a =
  node (T.scalar (T.sum a.data)) [ a ] (fun g ->
      [ Some (fun () -> T.full (T.shape a.data) (T.get_flat g 0)) ])

let mean a =
  let n = float_of_int (max 1 (T.numel a.data)) in
  node (T.scalar (T.mean a.data)) [ a ] (fun g ->
      [ Some (fun () -> T.full (T.shape a.data) (T.get_flat g 0 /. n)) ])

let dot a b =
  node (T.scalar (T.dot a.data b.data)) [ a; b ] (fun g ->
      let gv = T.get_flat g 0 in
      [ Some (fun () -> T.scale gv b.data); Some (fun () -> T.scale gv a.data) ])

let add_bias_rows x b =
  if T.rank x.data <> 2 || T.rank b.data <> 1 then
    invalid_arg "Value.add_bias_rows: expected rank-2 x and rank-1 b";
  let n = T.dim x.data 0 and f = T.dim x.data 1 in
  if T.dim b.data 0 <> f then invalid_arg "Value.add_bias_rows: width mismatch";
  let y = T.copy x.data in
  let yd = y.T.data and bd = b.data.T.data in
  for i = 0 to n - 1 do
    let o = i * f in
    for j = 0 to f - 1 do
      yd.(o + j) <- yd.(o + j) +. bd.(j)
    done
  done;
  node y [ x; b ] (fun g ->
      let gb () =
        let gd = g.T.data and gb = Array.make f 0. in
        for i = 0 to n - 1 do
          let o = i * f in
          for j = 0 to f - 1 do
            gb.(j) <- gb.(j) +. gd.(o + j)
          done
        done;
        T.make [| f |] gb
      in
      [ Some (fun () -> g); Some gb ])

(* ------------------------------------------------------------------ *)
(* Convolution / pooling                                               *)
(* ------------------------------------------------------------------ *)

(* Bias gradient of a convolution: per sample, the sum of [g] over
   each output channel; the samples' sums are then added in ascending
   sample order. *)
let conv_bias_grad g =
  let n = T.dim g 0 and co = T.dim g 1 in
  let hw = T.dim g 2 * T.dim g 3 in
  let gd = g.T.data and gb = Array.make co 0. in
  for b = 0 to n - 1 do
    for o = 0 to co - 1 do
      let base = ((b * co) + o) * hw in
      let acc = ref 0. in
      for i = 0 to hw - 1 do
        acc := !acc +. Array.unsafe_get gd (base + i)
      done;
      gb.(o) <- gb.(o) +. !acc
    done
  done;
  T.make [| co |] gb

let c_conv_dx = Obs.counter "autodiff/conv_input_grads"
let c_conv_dw = Obs.counter "autodiff/conv_weight_grads"

(* Parents and backward of a convolution node, given its input and
   weight gradients as functions of the output gradient; the bias (when
   present) is the third parent.  The counters record each input and
   weight gradient the tape actually computes. *)
let conv_node y x ~weight ~bias ~gx ~gw =
  let grads g =
    [
      Some (fun () -> Obs.incr c_conv_dx; gx g);
      Some (fun () -> Obs.incr c_conv_dw; gw g);
    ]
  in
  match bias with
  | Some b ->
      node y [ x; weight; b ] (fun g -> grads g @ [ Some (fun () -> conv_bias_grad g) ])
  | None -> node y [ x; weight ] grads

let conv2d ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  let bias_t = Option.map (fun b -> b.data) bias in
  let y = T.conv2d ~stride ~pad x.data ~weight:weight.data ~bias:bias_t in
  conv_node y x ~weight ~bias
    ~gx:(fun g ->
      T.conv2d_backward_input ~stride ~pad ~input_shape:(T.shape x.data)
        ~weight:weight.data g)
    ~gw:(fun g ->
      T.conv2d_backward_weight ~stride ~pad ~input:x.data
        ~weight_shape:(T.shape weight.data) g)

let conv2d_transpose ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  let bias_t = Option.map (fun b -> b.data) bias in
  let y = T.conv2d_transpose ~stride ~pad x.data ~weight:weight.data ~bias:bias_t in
  (* Transposed conv forward == conv backward-input, so its input
     gradient is a plain convolution of g with the same kernel (viewed
     as [ci <- co]), and the weight gradient mirrors
     conv2d_backward_weight with the roles of x and g exchanged. *)
  conv_node y x ~weight ~bias
    ~gx:(fun g -> T.conv2d ~stride ~pad g ~weight:weight.data ~bias:None)
    ~gw:(fun g ->
      T.conv2d_backward_weight ~stride ~pad ~input:g
        ~weight_shape:(T.shape weight.data) x.data)

let maxpool2 x =
  let y, arg = T.maxpool2 x.data in
  node y [ x ] (fun g ->
      [ Some (fun () -> T.maxpool2_backward ~input_shape:(T.shape x.data) arg g) ])

let concat_channels xs =
  match xs with
  | [] -> invalid_arg "Value.concat_channels: empty list"
  | _ ->
      let y = T.concat_channels (List.map (fun x -> x.data) xs) in
      (* channels are axis 1 of a batch, axis 0 of a stack, and a map
         is one channel *)
      let channel_count t =
        match T.rank t with 4 -> T.dim t 1 | 3 -> T.dim t 0 | _ -> 1
      in
      node y xs (fun g ->
          let pos = ref 0 in
          List.map
            (fun x ->
              let lo = !pos and c = channel_count x.data in
              pos := lo + c;
              Some (fun () -> T.reshape (T.slice_channels g lo c) (T.shape x.data)))
            xs)

let slice_channels x lo k =
  let y = T.slice_channels x.data lo k in
  node y [ x ] (fun g ->
      let gx () =
        (* [x] as [n; c; hw] planes; [g] holds channels lo..lo+k-1 of
           each sample *)
        let n, c =
          match T.shape x.data with
          | [| n; c; _; _ |] -> (n, c)
          | [| c; _; _ |] -> (1, c)
          | _ -> (1, 1)
        in
        let hw = T.numel x.data / max 1 (n * c) in
        let gx = Array.make (T.numel x.data) 0. in
        for b = 0 to n - 1 do
          Array.blit g.T.data (b * k * hw) gx (((b * c) + lo) * hw) (k * hw)
        done;
        T.make (T.shape x.data) gx
      in
      [ Some gx ])

(* ------------------------------------------------------------------ *)
(* Batch axis                                                          *)
(* ------------------------------------------------------------------ *)

let stack xs =
  let datas = Array.of_list (List.map (fun x -> x.data) xs) in
  let y = T.stack datas in
  node y xs (fun g ->
      List.mapi
        (fun i x ->
          let per = T.numel x.data in
          Some (fun () -> T.make (T.shape x.data) (Array.sub g.T.data (i * per) per)))
        xs)

(* Sample [i]'s gradient fills its own slot of a batch gradient whose
   other slots hold -0., the exact identity of IEEE addition: when the
   backward pass accumulates every sample's contribution into the
   batch, each slot keeps its own sample's bits, signed zeros
   included. *)
let unstack x =
  Array.mapi
    (fun i y ->
      node y [ x ] (fun g ->
          let gx () =
            let per = T.numel y in
            let gx = Array.make (T.numel x.data) (-0.) in
            Array.blit g.T.data 0 gx (i * per) per;
            T.make (T.shape x.data) gx
          in
          [ Some gx ]))
    (T.unstack x.data)

(* Sample b of the result is sample (b + n/2) mod n of [t]. *)
let swap_halves_data t =
  let n = T.dim t 0 in
  if n mod 2 <> 0 then invalid_arg "Value.swap_halves: odd batch";
  let half = T.numel t / 2 in
  let out = Array.create_float (T.numel t) in
  Array.blit t.T.data 0 out half half;
  Array.blit t.T.data half out 0 half;
  T.make (T.shape t) out

let swap_halves x =
  node (swap_halves_data x.data) [ x ] (fun g ->
      [ Some (fun () -> swap_halves_data g) ])

let reshape x sh =
  let y = T.reshape (T.copy x.data) sh in
  node y [ x ] (fun g -> [ Some (fun () -> T.reshape (T.copy g) (T.shape x.data)) ])

let columns x =
  if T.rank x.data <> 2 then invalid_arg "Value.columns: rank-2 only";
  let n = T.dim x.data 0 and f = T.dim x.data 1 in
  let xd = x.data.T.data in
  Array.init f (fun j ->
      let col = Array.make n 0. in
      for i = 0 to n - 1 do
        col.(i) <- xd.((i * f) + j)
      done;
      node (T.make [| n |] col) [ x ] (fun g ->
          let gx () =
            let gd = g.T.data and gx = Array.make (n * f) 0. in
            for i = 0 to n - 1 do
              gx.((i * f) + j) <- gd.(i)
            done;
            T.make [| n; f |] gx
          in
          [ Some gx ]))

let mse x target =
  if not (T.same_shape x.data target) then invalid_arg "Value.mse: shape mismatch";
  let n = float_of_int (max 1 (T.numel target)) in
  let diff = T.sub x.data target in
  let loss = T.dot diff diff /. n in
  node (T.scalar loss) [ x ] (fun g ->
      [ Some (fun () -> T.scale (2. *. T.get_flat g 0 /. n) diff) ])

let rmse_frobenius x target =
  if not (T.same_shape x.data target) then
    invalid_arg "Value.rmse_frobenius: shape mismatch";
  let n = float_of_int (max 1 (T.numel target)) in
  let diff = T.sub x.data target in
  let msev = T.dot diff diff /. n in
  let rmse = sqrt msev in
  node (T.scalar rmse) [ x ] (fun g ->
      let gv = T.get_flat g 0 in
      let denom = Float.max rmse 1e-12 in
      [ Some (fun () -> T.scale (gv /. (denom *. n)) diff) ])

let add_list = function
  | [] -> invalid_arg "Value.add_list: empty list"
  | x :: rest -> List.fold_left add x rest

(* ------------------------------------------------------------------ *)
(* Backward pass                                                       *)
(* ------------------------------------------------------------------ *)

let shape_string t =
  "[" ^ String.concat "; " (Array.to_list (Array.map string_of_int (T.shape t))) ^ "]"

let accumulate v g =
  if not (T.same_shape g v.data) then
    invalid_arg
      (Printf.sprintf "Value.backward: gradient of shape %s for a parent of shape %s"
         (shape_string g) (shape_string v.data));
  match v.grad with
  | None -> v.grad <- Some (T.copy g)
  | Some acc -> T.axpy ~alpha:1. g acc

let backward ?wrt root =
  if T.numel root.data <> 1 then
    invalid_arg "Value.backward: root must be a scalar";
  (* The leaves that receive gradients: [wrt], or every param. *)
  let wanted =
    match wrt with
    | None -> fun v -> Option.is_none v.backward
    | Some leaves ->
        let ids = Hashtbl.create 64 in
        List.iter
          (fun v ->
            if Option.is_some v.backward then
              invalid_arg "Value.backward: ~wrt must list leaves";
            Hashtbl.replace ids v.id ())
          leaves;
        fun v -> Option.is_none v.backward && Hashtbl.mem ids v.id
  in
  (* Topological order via DFS over the nodes that require gradients,
     keeping only those on a path to a wanted leaf: [needs] maps each
     visited node to whether it is on one. *)
  let needs = Hashtbl.create 256 in
  let order = ref [] in
  let rec visit v =
    match Hashtbl.find_opt needs v.id with
    | Some n -> n
    | None when not v.requires_grad -> false
    | None ->
        let n = List.fold_left (fun acc p -> visit p || acc) (wanted v) v.parents in
        Hashtbl.add needs v.id n;
        if n then order := v :: !order;
        n
  in
  if visit root then root.grad <- Some (T.ones (T.shape root.data));
  List.iter
    (fun v ->
      match (v.backward, v.grad) with
      | Some bw, Some g ->
          let parent_grads = bw g in
          let np = List.length v.parents and ng = List.length parent_grads in
          if ng <> np then
            invalid_arg
              (Printf.sprintf
                 "Value.backward: backward arity mismatch (%d gradients for %d parents)"
                 ng np);
          List.iter2
            (fun p gp ->
              match gp with
              | Some gp when Hashtbl.find_opt needs p.id = Some true ->
                  accumulate p (gp ())
              | Some _ | None -> ())
            v.parents parent_grads;
          (* Free intermediate gradients eagerly to bound memory. *)
          v.grad <- None
      | _ -> ())
    !order

let zero_grad v = v.grad <- None

(* ------------------------------------------------------------------ *)
(* Gradient checking                                                   *)
(* ------------------------------------------------------------------ *)

let gradient_check ?(eps = 1e-5) ?(tol = 1e-4) f x0 =
  let p = param (T.copy x0) in
  let loss = f p in
  backward loss;
  let analytic = grad p in
  let ok = ref true in
  let n = T.numel x0 in
  for i = 0 to n - 1 do
    let eval v =
      let x = T.copy x0 in
      T.set_flat x i v;
      T.get_flat (data (f (param x))) 0
    in
    let x = T.get_flat x0 i in
    let fd = (eval (x +. eps) -. eval (x -. eps)) /. (2. *. eps) in
    let a = T.get_flat analytic i in
    let scale_ref = Float.max 1. (Float.max (abs_float fd) (abs_float a)) in
    if abs_float (fd -. a) /. scale_ref > tol then ok := false
  done;
  !ok
