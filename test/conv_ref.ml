(* Reference loop nests for the four convolution passes, one sample at
   a time.  Each output element is one sequential chain from 0. over
   its in-image terms, in the order the conv section of tensor.ml
   documents, with the bias added last: no pool, no zero-term skips.
   The GEMM lowerings must match these bit for bit, as [matmul] must
   match its naive triple loop. *)

module T = Dco3d_tensor.Tensor

(* Element (a, b, c, d) of a rank-4 tensor. *)
let get4 t a b c d =
  T.get_flat t ((((((a * T.dim t 1) + b) * T.dim t 2) + c) * T.dim t 3) + d)

let with_bias bias o acc =
  match bias with None -> acc | Some b -> acc +. T.get_flat b o

(* [x : [ci; h; w]], [weight : [co; ci; kh; kw]]; terms over taps
   (c, ky, kx) ascending. *)
let conv2d ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  let ci = T.dim x 0 and h = T.dim x 1 and w = T.dim x 2 in
  let co = T.dim weight 0 and kh = T.dim weight 2 and kw = T.dim weight 3 in
  let oh = ((h + (2 * pad) - kh) / stride) + 1
  and ow = ((w + (2 * pad) - kw) / stride) + 1 in
  T.init [| co; oh; ow |] (fun idx ->
      let o = idx.(0) and oy = idx.(1) and ox = idx.(2) in
      let acc = ref 0. in
      for c = 0 to ci - 1 do
        for ky = 0 to kh - 1 do
          for kx = 0 to kw - 1 do
            let iy = (oy * stride) + ky - pad and ix = (ox * stride) + kx - pad in
            if iy >= 0 && iy < h && ix >= 0 && ix < w then
              acc := !acc +. (get4 weight o c ky kx *. T.get3 x c iy ix)
          done
        done
      done;
      with_bias bias o !acc)

(* The gradient of [conv2d] with respect to its input: terms over
   (o, ky, kx) ascending, each from the output pixel that tap reached
   the input pixel from. *)
let backward_input ?(stride = 1) ?(pad = 0) ~input_shape ~weight gout =
  let co = T.dim weight 0 and kh = T.dim weight 2 and kw = T.dim weight 3 in
  let oh = T.dim gout 1 and ow = T.dim gout 2 in
  T.init input_shape (fun idx ->
      let c = idx.(0) and iy = idx.(1) and ix = idx.(2) in
      let acc = ref 0. in
      for o = 0 to co - 1 do
        for ky = 0 to kh - 1 do
          for kx = 0 to kw - 1 do
            let ty = iy + pad - ky and tx = ix + pad - kx in
            if ty mod stride = 0 && tx mod stride = 0 then begin
              let oy = ty / stride and ox = tx / stride in
              if oy >= 0 && oy < oh && ox >= 0 && ox < ow then
                acc := !acc +. (get4 weight o c ky kx *. T.get3 gout o oy ox)
            end
          done
        done
      done;
      !acc)

(* The gradient of [conv2d] with respect to its weight: terms over
   output pixels (oy, ox) ascending. *)
let backward_weight ?(stride = 1) ?(pad = 0) ~input ~weight_shape gout =
  let h = T.dim input 1 and w = T.dim input 2 in
  let oh = T.dim gout 1 and ow = T.dim gout 2 in
  T.init weight_shape (fun idx ->
      let o = idx.(0) and c = idx.(1) and ky = idx.(2) and kx = idx.(3) in
      let acc = ref 0. in
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let iy = (oy * stride) + ky - pad and ix = (ox * stride) + kx - pad in
          if iy >= 0 && iy < h && ix >= 0 && ix < w then
            acc := !acc +. (T.get3 gout o oy ox *. T.get3 input c iy ix)
        done
      done;
      !acc)

(* [x : [ci; h; w]], [weight : [ci; co; kh; kw]]; terms over c
   ascending, then taps (ky, kx) descending, which is source pixels
   (iy, ix) ascending. *)
let conv2d_transpose ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  let ci = T.dim x 0 and h = T.dim x 1 and w = T.dim x 2 in
  let co = T.dim weight 1 and kh = T.dim weight 2 and kw = T.dim weight 3 in
  let oh = ((h - 1) * stride) - (2 * pad) + kh
  and ow = ((w - 1) * stride) - (2 * pad) + kw in
  T.init [| co; oh; ow |] (fun idx ->
      let o = idx.(0) and oy = idx.(1) and ox = idx.(2) in
      let acc = ref 0. in
      for c = 0 to ci - 1 do
        for ky = kh - 1 downto 0 do
          for kx = kw - 1 downto 0 do
            let ty = oy + pad - ky and tx = ox + pad - kx in
            if ty mod stride = 0 && tx mod stride = 0 then begin
              let iy = ty / stride and ix = tx / stride in
              if iy >= 0 && iy < h && ix >= 0 && ix < w then
                acc := !acc +. (T.get3 x c iy ix *. get4 weight c o ky kx)
            end
          done
        done
      done;
      with_bias bias o !acc)
