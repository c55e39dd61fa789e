module V = Dco3d_autodiff.Value

type graph = { adj : Csr.t; adj_t : Csr.t }

let graph adj = { adj; adj_t = Csr.transpose adj }

let spmm g x =
  let y = Csr.spmm g.adj (V.data x) in
  V.custom ~data:y ~parents:[ x ]
    ~backward:(fun gy -> [ Some (Csr.spmm g.adj_t gy) ])

type t = {
  graph : graph;
  lin : Dco3d_nn.Layer.t;
  act : V.t -> V.t;
}

let make rng ~graph ~in_dim ~out_dim ~act =
  { graph; lin = Dco3d_nn.Layer.linear rng ~in_dim ~out_dim (); act }

let layer rng ~adj ~in_dim ~out_dim ?(act = Fun.id) () =
  make rng ~graph:(graph adj) ~in_dim ~out_dim ~act

let forward l x = l.act (Dco3d_nn.Layer.forward l.lin (spmm l.graph x))
let params l = Dco3d_nn.Layer.params l.lin

let stack rng ~adj ~dims ?(hidden_act = V.relu) () =
  let graph = graph adj in
  let rec build = function
    | [] | [ _ ] -> []
    | [ in_dim; out_dim ] -> [ make rng ~graph ~in_dim ~out_dim ~act:Fun.id ]
    | in_dim :: (out_dim :: _ as rest) ->
        make rng ~graph ~in_dim ~out_dim ~act:hidden_act :: build rest
  in
  build dims

let forward_stack layers x = List.fold_left (fun acc l -> forward l acc) x layers
let stack_params layers = List.concat_map params layers
