(** Dataset construction for the congestion predictor (section III-A).

    For one design, [n_samples] diverse 3D placements are generated by
    sampling the Table-I placement parameters (plus the tool seed, the
    paper's run-to-run diversity), each is routed to obtain ground-truth
    per-die congestion (overflow) maps, and the 7-channel per-die input
    features are extracted at GCell resolution.  The paper builds 300
    layouts per design; the default here is smaller (see DESIGN.md,
    "Scale parameters"). *)

type sample = {
  f_bottom : Dco3d_tensor.Tensor.t;  (** [7; ny; nx] raw features, die 0 *)
  f_top : Dco3d_tensor.Tensor.t;
  c_bottom : Dco3d_tensor.Tensor.t;
  (** [ny; nx] congestion label, die 0: per-GCell routed overflow plus
      the utilization field above 50 % (a dense stand-in for the tool's
      congestion report — see the implementation comment) *)
  c_top : Dco3d_tensor.Tensor.t;
  params : Dco3d_place.Params.t;  (** the knobs that produced it *)
  sample_seed : int;
}

type t = {
  design : string;
  nx : int;
  ny : int;
  samples : sample array;
}

val build :
  ?n_samples:int ->
  ?seed:int ->
  ?route_cache:Dco3d_route.Route_cache.t ->
  route_cfg:Dco3d_route.Router.config ->
  Dco3d_netlist.Netlist.t ->
  Dco3d_place.Floorplan.t ->
  t
(** Defaults: [n_samples = 24], [seed = 0].  Deterministic: each sample
    derives its RNG stream from its own index, so the result is
    bit-identical at every [DCO3D_JOBS] value.  [?route_cache] routes
    each sample through the content-addressed route cache — replays are
    bit-identical, so the dataset is unchanged whether a sample hits or
    misses.

    {b Parallelism policy.}  [build] parallelizes across samples — one
    pool region over layout indices — and {e never} inside them: the
    kernels a sample runs underneath (placement, routing, RUDY, feature
    extraction) execute sequentially on the domain that owns the
    sample, because {!Dco3d_parallel.Pool} runs regions opened inside a
    region inline.  Exactly one of the two levels fans out, so the
    machine cannot be oversubscribed by nesting. *)

val merge : t list -> t
(** Concatenate datasets (grids must agree); the merged design name
    joins the inputs. *)

val split : test_fraction:float -> seed:int -> t -> t * t
(** Shuffled (train, test) split; the paper reserves 20 %. *)

val augment8 : sample -> sample list
(** The paper's 8x augmentation: rotations by 0/90/180/270 degrees plus
    horizontal and vertical flips of every map, applied consistently to
    features and labels.  Requires square maps for the rotations; on
    non-square grids only the flips are produced. *)

val label_scale : t -> float
(** A positive normalization divisor for the overflow labels (the 95th
    percentile of nonzero label values, or 1.0 for all-zero labels). *)

val digest : t -> string
(** Stable content digest (hex MD5) over the exact float bits of every
    feature/label map plus the per-sample knobs and seeds — equal
    digests mean bit-identical datasets.  The serving tier's
    corpus-build replies and the determinism tests compare by this. *)
