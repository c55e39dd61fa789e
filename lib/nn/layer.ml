module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value

type act_kind = Relu | Leaky of float | Sigmoid | Tanh | Maxpool2 | Opaque

type spec =
  | Conv of { stride : int; pad : int; weight : V.t; bias : V.t option }
  | Conv_transpose of {
      stride : int;
      pad : int;
      weight : V.t;
      bias : V.t option;
    }
  | Linear of { weight : V.t; bias : V.t option }
  | Act of act_kind
  | Seq of spec list

type t = {
  params : V.t list;
  forward : V.t -> V.t;
  forward_batch : T.t -> T.t;
  spec : spec;
}

let no_batch name _ =
  invalid_arg (Printf.sprintf "Layer.forward_batch: %s has no batched path" name)

let conv2d rng ?(stride = 1) ?(pad = 0) ?(bias = true) ~in_channels
    ~out_channels ~ksize () =
  let fan_in = in_channels * ksize * ksize in
  let w = V.param (T.kaiming rng ~fan_in [| out_channels; in_channels; ksize; ksize |]) in
  let b = if bias then Some (V.param (T.zeros [| out_channels |])) else None in
  let params = w :: Option.to_list b in
  {
    params;
    forward = (fun x -> V.conv2d ~stride ~pad x ~weight:w ~bias:b);
    forward_batch =
      (fun x ->
        T.conv2d_batch ~stride ~pad x ~weight:(V.data w)
          ~bias:(Option.map V.data b));
    spec = Conv { stride; pad; weight = w; bias = b };
  }

let conv2d_transpose rng ?(stride = 1) ?(pad = 0) ?(bias = true) ~in_channels
    ~out_channels ~ksize () =
  let fan_in = in_channels * ksize * ksize in
  let w = V.param (T.kaiming rng ~fan_in [| in_channels; out_channels; ksize; ksize |]) in
  let b = if bias then Some (V.param (T.zeros [| out_channels |])) else None in
  let params = w :: Option.to_list b in
  {
    params;
    forward = (fun x -> V.conv2d_transpose ~stride ~pad x ~weight:w ~bias:b);
    forward_batch =
      (fun x ->
        T.conv2d_transpose_batch ~stride ~pad x ~weight:(V.data w)
          ~bias:(Option.map V.data b));
    spec = Conv_transpose { stride; pad; weight = w; bias = b };
  }

let pointwise rng ~in_channels ~out_channels () =
  conv2d rng ~in_channels ~out_channels ~ksize:1 ()

(* Same per-row bias addition as [V.add_bias_rows], on plain tensors. *)
let add_bias_rows_t x b =
  let n = T.dim x 0 and f = T.dim x 1 in
  let y = T.copy x in
  for i = 0 to n - 1 do
    for j = 0 to f - 1 do
      T.set2 y i j (T.get2 y i j +. T.get_flat b j)
    done
  done;
  y

let linear rng ?(bias = true) ~in_dim ~out_dim () =
  let w = V.param (T.kaiming rng ~fan_in:in_dim [| in_dim; out_dim |]) in
  let b = if bias then Some (V.param (T.zeros [| out_dim |])) else None in
  let params = w :: Option.to_list b in
  {
    params;
    forward =
      (fun x ->
        let y = V.matmul x w in
        match b with Some b -> V.add_bias_rows y b | None -> y);
    forward_batch =
      (fun x ->
        let y = T.matmul x (V.data w) in
        match b with Some b -> add_bias_rows_t y (V.data b) | None -> y);
    spec = Linear { weight = w; bias = b };
  }

let activation ?batch ?(kind = Opaque) f =
  {
    params = [];
    forward = f;
    forward_batch =
      (match batch with Some fb -> fb | None -> no_batch "activation");
    spec = Act kind;
  }

let relu = activation ~batch:T.relu ~kind:Relu V.relu

let leaky_relu slope =
  activation
    ~batch:(T.leaky_relu slope)
    ~kind:(Leaky slope) (V.leaky_relu slope)

let sigmoid = activation ~batch:T.sigmoid ~kind:Sigmoid V.sigmoid
let tanh_ = activation ~batch:T.tanh_ ~kind:Tanh V.tanh_
let maxpool2 = activation ~batch:T.maxpool2_batch ~kind:Maxpool2 V.maxpool2

let seq layers =
  {
    params = List.concat_map (fun l -> l.params) layers;
    forward = (fun x -> List.fold_left (fun acc l -> l.forward acc) x layers);
    forward_batch =
      (fun x -> List.fold_left (fun acc l -> l.forward_batch acc) x layers);
    spec = Seq (List.map (fun l -> l.spec) layers);
  }

let num_params l = List.fold_left (fun acc p -> acc + V.numel p) 0 l.params

let state l = List.map (fun p -> T.copy (V.data p)) l.params

let load_state l snapshot =
  if List.length snapshot <> List.length l.params then
    invalid_arg "Layer.load_state: parameter count mismatch";
  List.iter2
    (fun p s ->
      let d = V.data p in
      if not (T.same_shape d s) then
        invalid_arg "Layer.load_state: shape mismatch";
      for i = 0 to T.numel d - 1 do
        T.set_flat d i (T.get_flat s i)
      done)
    l.params snapshot
