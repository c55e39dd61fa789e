module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value

type act_kind = Relu | Leaky of float | Sigmoid | Tanh | Maxpool2

type t =
  | Conv of { stride : int; pad : int; weight : V.t; bias : V.t option }
  | Conv_transpose of {
      stride : int;
      pad : int;
      weight : V.t;
      bias : V.t option;
    }
  | Linear of { weight : V.t; bias : V.t option }
  | Act of act_kind
  | Seq of t list

let rec forward l x =
  match l with
  | Conv { stride; pad; weight; bias } -> V.conv2d ~stride ~pad x ~weight ~bias
  | Conv_transpose { stride; pad; weight; bias } ->
      V.conv2d_transpose ~stride ~pad x ~weight ~bias
  | Linear { weight; bias } -> (
      let y = V.matmul x weight in
      match bias with Some b -> V.add_bias_rows y b | None -> y)
  | Act Relu -> V.relu x
  | Act (Leaky slope) -> V.leaky_relu slope x
  | Act Sigmoid -> V.sigmoid x
  | Act Tanh -> V.tanh_ x
  | Act Maxpool2 -> V.maxpool2 x
  | Seq layers -> List.fold_left (fun acc l -> forward l acc) x layers

let rec params = function
  | Conv { weight; bias; _ }
  | Conv_transpose { weight; bias; _ }
  | Linear { weight; bias } ->
      weight :: Option.to_list bias
  | Act _ -> []
  | Seq layers -> List.concat_map params layers

let rec frozen l =
  let view p = V.const (V.data p) in
  match l with
  | Conv c -> Conv { c with weight = view c.weight; bias = Option.map view c.bias }
  | Conv_transpose c ->
      Conv_transpose { c with weight = view c.weight; bias = Option.map view c.bias }
  | Linear c -> Linear { weight = view c.weight; bias = Option.map view c.bias }
  | Act _ -> l
  | Seq layers -> Seq (List.map frozen layers)

let conv2d rng ?(stride = 1) ?(pad = 0) ?(bias = true) ~in_channels
    ~out_channels ~ksize () =
  let fan_in = in_channels * ksize * ksize in
  let w = V.param (T.kaiming rng ~fan_in [| out_channels; in_channels; ksize; ksize |]) in
  let b = if bias then Some (V.param (T.zeros [| out_channels |])) else None in
  Conv { stride; pad; weight = w; bias = b }

let conv2d_transpose rng ?(stride = 1) ?(pad = 0) ?(bias = true) ~in_channels
    ~out_channels ~ksize () =
  let fan_in = in_channels * ksize * ksize in
  let w = V.param (T.kaiming rng ~fan_in [| in_channels; out_channels; ksize; ksize |]) in
  let b = if bias then Some (V.param (T.zeros [| out_channels |])) else None in
  Conv_transpose { stride; pad; weight = w; bias = b }

let pointwise rng ~in_channels ~out_channels () =
  conv2d rng ~in_channels ~out_channels ~ksize:1 ()

let linear rng ?(bias = true) ~in_dim ~out_dim () =
  let w = V.param (T.kaiming rng ~fan_in:in_dim [| in_dim; out_dim |]) in
  let b = if bias then Some (V.param (T.zeros [| out_dim |])) else None in
  Linear { weight = w; bias = b }

let relu = Act Relu
let leaky_relu slope = Act (Leaky slope)
let sigmoid = Act Sigmoid
let tanh_ = Act Tanh
let maxpool2 = Act Maxpool2
let seq layers = Seq layers

let num_params l = List.fold_left (fun acc p -> acc + V.numel p) 0 (params l)

let state l = List.map (fun p -> T.copy (V.data p)) (params l)

let load_state l snapshot =
  let ps = params l in
  if List.length snapshot <> List.length ps then
    invalid_arg "Layer.load_state: parameter count mismatch";
  List.iter2
    (fun p s ->
      let d = V.data p in
      if not (T.same_shape d s) then
        invalid_arg "Layer.load_state: shape mismatch";
      for i = 0 to T.numel d - 1 do
        T.set_flat d i (T.get_flat s i)
      done)
    ps snapshot
