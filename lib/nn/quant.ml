module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value

(* A batched inference program compiled from a Layer.t: a flat run of
   units executed left to right.  The quantization policy decides which
   convolutions go to the int8 engine; those need spatial extent
   (kh*kw > 1, including every transposed conv) and take any directly
   following relu/leaky fused into the requantizing epilogue.  Every
   other conv runs float32 — pointwise (1x1) convs always, since at this
   network's sizes their cost is dominated by per-call fixed work
   (activation quantization, image staging) that int8 MAC savings
   cannot recoup.  A policy that declines every conv yields the plain
   float32 batched network.  Everything is plain data, so a program
   round-trips through [parts] for persistence. *)

type fused_act = [ `None | `Relu | `Leaky of float ]

type qunit =
  | Q_conv of {
      transposed : bool;
      stride : int;
      pad : int;
      qw : T.qweight;
      bias : float array option;
      act : fused_act;
    }
  | F_conv of {
      transposed : bool;
      stride : int;
      pad : int;
      weight : T.t;
      bias : T.t option;
    }
  | F_act of [ `Relu | `Leaky of float | `Sigmoid | `Tanh | `Maxpool2 ]

type t = { units : qunit list }

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let rec flatten layer acc =
  match layer with
  | Layer.Seq layers -> List.fold_right flatten layers acc
  | l -> l :: acc

let tensor_bias = function
  | None -> None
  | Some b -> Some (T.copy (V.data b))

let float_bias = function
  | None -> None
  | Some b ->
      let d = V.data b in
      Some (Array.init (T.numel d) (T.get_flat d))

(* A conv is worth quantizing when it has spatial extent: its int8
   GEMM then amortizes the per-call quantize/stage overhead over
   kh*kw-fold more MACs per activation byte. *)
let quantizable w = T.dim w 2 * T.dim w 3 > 1

let compile_conv ~quantize ~transposed ~stride ~pad ~weight ~bias ~act =
  let w = V.data weight in
  if quantize then
    let qw =
      if transposed then T.quantize_weight_transposed w else T.quantize_weight w
    in
    Q_conv { transposed; stride; pad; qw; bias = float_bias bias; act }
  else
    F_conv
      { transposed; stride; pad; weight = T.copy w; bias = tensor_bias bias }

let of_layer ?(quantize_conv = fun _ -> true) (layer : Layer.t) =
  let conv_idx = ref (-1) in
  let rec go = function
    | [] -> []
    | (( Layer.Conv { stride; pad; weight; bias }
       | Layer.Conv_transpose { stride; pad; weight; bias } ) as conv)
      :: rest ->
        incr conv_idx;
        let transposed =
          match conv with Layer.Conv_transpose _ -> true | _ -> false
        in
        let quantize = quantize_conv !conv_idx && quantizable (V.data weight) in
        let act, rest =
          match rest with
          | Layer.Act Layer.Relu :: tl when quantize -> (`Relu, tl)
          | Layer.Act (Layer.Leaky a) :: tl when quantize -> (`Leaky a, tl)
          | _ -> (`None, rest)
        in
        compile_conv ~quantize ~transposed ~stride ~pad ~weight ~bias ~act
        :: go rest
    | Layer.Act k :: rest ->
        let a =
          match k with
          | Layer.Relu -> `Relu
          | Layer.Leaky a -> `Leaky a
          | Layer.Sigmoid -> `Sigmoid
          | Layer.Tanh -> `Tanh
          | Layer.Maxpool2 -> `Maxpool2
        in
        F_act a :: go rest
    | Layer.Linear _ :: _ ->
        invalid_arg "Quant.of_layer: linear layers are not supported"
    | Layer.Seq _ :: _ -> assert false (* flattened away *)
  in
  { units = go (flatten layer []) }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let run_unit x = function
  | Q_conv { transposed; stride; pad; qw; bias; act } ->
      let bias = Option.map (fun b -> T.make [| Array.length b |] b) bias in
      if transposed then
        T.conv2d_transpose_batch_i8 ~stride ~pad ~act x ~qweight:qw ~bias
      else T.conv2d_batch_i8 ~stride ~pad ~act x ~qweight:qw ~bias
  | F_conv { transposed; stride; pad; weight; bias } ->
      if transposed then
        T.conv2d_transpose_batch ~stride ~pad x ~weight ~bias
      else T.conv2d_batch ~stride ~pad x ~weight ~bias
  | F_act `Relu -> T.relu x
  | F_act (`Leaky a) -> T.leaky_relu a x
  | F_act `Sigmoid -> T.sigmoid x
  | F_act `Tanh -> T.tanh_ x
  | F_act `Maxpool2 -> T.maxpool2_batch x

let forward_batch t x = List.fold_left run_unit x t.units

(* ------------------------------------------------------------------ *)
(* Persistence parts                                                   *)
(* ------------------------------------------------------------------ *)

(* Pure-data image of a program.  Kept as a versioned closed type so a
   Marshal round trip needs no closures; [of_parts] revalidates every
   quantized payload through [T.qweight_of_parts]. *)
type pact = A_none | A_relu | A_leaky of float | A_sigmoid | A_tanh | A_maxpool

type punit =
  | P_qconv of {
      p_transposed : bool;
      p_stride : int;
      p_pad : int;
      p_shape : int array;
      p_data : Bytes.t;
      p_scales : float array;
      p_bias : float array option;
      p_act : pact;
    }
  | P_fconv of {
      p_transposed : bool;
      p_stride : int;
      p_pad : int;
      p_wshape : int array;
      p_weight : float array;
      p_bias : float array option;
    }
  | P_act of pact

type parts = punit list

let to_parts t =
  List.map
    (function
      | Q_conv { transposed; stride; pad; qw; bias; act } ->
          P_qconv
            {
              p_transposed = transposed;
              p_stride = stride;
              p_pad = pad;
              p_shape = T.qweight_shape qw;
              p_data = T.qweight_bytes qw;
              p_scales = T.qweight_scales qw;
              p_bias = Option.map Array.copy bias;
              p_act =
                (match act with
                | `None -> A_none
                | `Relu -> A_relu
                | `Leaky a -> A_leaky a);
            }
      | F_conv { transposed; stride; pad; weight; bias } ->
          P_fconv
            {
              p_transposed = transposed;
              p_stride = stride;
              p_pad = pad;
              p_wshape = T.shape weight;
              p_weight = Array.init (T.numel weight) (T.get_flat weight);
              p_bias =
                Option.map
                  (fun b -> Array.init (T.numel b) (T.get_flat b))
                  bias;
            }
      | F_act a ->
          P_act
            (match a with
            | `Relu -> A_relu
            | `Leaky s -> A_leaky s
            | `Sigmoid -> A_sigmoid
            | `Tanh -> A_tanh
            | `Maxpool2 -> A_maxpool))
    t.units

let of_parts parts =
  let fused = function
    | A_none -> `None
    | A_relu -> `Relu
    | A_leaky a -> `Leaky a
    | _ -> invalid_arg "Quant.of_parts: invalid fused activation"
  in
  {
    units =
      List.map
        (function
          | P_qconv p ->
              Q_conv
                {
                  transposed = p.p_transposed;
                  stride = p.p_stride;
                  pad = p.p_pad;
                  qw =
                    T.qweight_of_parts ~shape:p.p_shape ~data:p.p_data
                      ~scales:p.p_scales;
                  bias = Option.map Array.copy p.p_bias;
                  act = fused p.p_act;
                }
          | P_fconv p ->
              F_conv
                {
                  transposed = p.p_transposed;
                  stride = p.p_stride;
                  pad = p.p_pad;
                  weight = T.make p.p_wshape p.p_weight;
                  bias =
                    Option.map
                      (fun b -> T.make [| Array.length b |] b)
                      p.p_bias;
                }
          | P_act a ->
              F_act
                (match a with
                | A_relu -> `Relu
                | A_leaky s -> `Leaky s
                | A_sigmoid -> `Sigmoid
                | A_tanh -> `Tanh
                | A_maxpool -> `Maxpool2
                | A_none -> invalid_arg "Quant.of_parts: bare A_none activation"))
        parts;
  }

(* ------------------------------------------------------------------ *)
(* Dequantization                                                      *)
(* ------------------------------------------------------------------ *)

(* Invert quantize_weight_transposed's layout change: the stored
   forward kernel [co; ci; kh; kw] (spatially flipped) back to the
   transposed-conv layout [ci; co; kh; kw]. *)
let unflip_transposed qw =
  let fwd = T.dequantize_weight qw in
  let shape = T.shape fwd in
  let co = shape.(0) and ci = shape.(1) in
  let kh = shape.(2) and kw = shape.(3) in
  let out = Array.make (ci * co * kh * kw) 0. in
  for o = 0 to co - 1 do
    for c = 0 to ci - 1 do
      for ky = 0 to kh - 1 do
        for kx = 0 to kw - 1 do
          out.((((((c * co) + o) * kh) + ky) * kw) + kx) <-
            T.get_flat fwd
              ((((((o * ci) + c) * kh) + (kh - 1 - ky)) * kw) + (kw - 1 - kx))
        done
      done
    done
  done;
  T.make [| ci; co; kh; kw |] out

(* The float network the quantized program effectively runs: quantized
   weights dequantized back to float, everything else untouched. *)
let dequantized_units t =
  List.map
    (function
      | Q_conv { transposed; stride; pad; qw; bias; act } ->
          let w =
            if transposed then unflip_transposed qw else T.dequantize_weight qw
          in
          [
            F_conv
              {
                transposed;
                stride;
                pad;
                weight = w;
                bias = Option.map (fun b -> T.make [| Array.length b |] b) bias;
              };
          ]
          @ (match act with
            | `None -> []
            | `Relu -> [ F_act `Relu ]
            | `Leaky a -> [ F_act (`Leaky a) ])
      | u -> [ u ])
    t.units
  |> List.concat

let dequantized t = { units = dequantized_units t }
