module V = Dco3d_autodiff.Value

let spmm adj x =
  let y = Csr.spmm adj (V.data x) in
  V.custom ~data:y ~parents:[ x ]
    ~backward:(fun g -> [ Some (Csr.spmm (Csr.transpose adj) g) ])

type t = {
  adj : Csr.t;
  lin : Dco3d_nn.Layer.t;
  act : V.t -> V.t;
}

let layer rng ~adj ~in_dim ~out_dim ?(act = Fun.id) () =
  { adj; lin = Dco3d_nn.Layer.linear rng ~in_dim ~out_dim (); act }

let forward l x = l.act (Dco3d_nn.Layer.forward l.lin (spmm l.adj x))
let params l = Dco3d_nn.Layer.params l.lin

let stack rng ~adj ~dims ?(hidden_act = V.relu) () =
  let rec build = function
    | [] | [ _ ] -> []
    | [ in_dim; out_dim ] -> [ layer rng ~adj ~in_dim ~out_dim () ]
    | in_dim :: (out_dim :: _ as rest) ->
        layer rng ~adj ~in_dim ~out_dim ~act:hidden_act () :: build rest
  in
  build dims

let forward_stack layers x = List.fold_left (fun acc l -> forward l acc) x layers
let stack_params layers = List.concat_map params layers
