(** 3D placement state: per-cell [(x, y)] coordinates plus a tier
    (z) assignment, and fixed IO pad positions.

    Tier 0 is the bottom die (which also carries the IO pads), tier 1
    the top die.  Quality metrics — HPWL, cut size, density maps,
    displacement — live here because every stage of the flow reports
    them. *)

type t = {
  nl : Dco3d_netlist.Netlist.t;
  fp : Floorplan.t;
  x : float array;  (** cell-center x, um *)
  y : float array;  (** cell-center y, um *)
  tier : int array;  (** 0 = bottom die, 1 = top die *)
  io_x : float array;
  io_y : float array;
}

val create : Dco3d_netlist.Netlist.t -> Floorplan.t -> t
(** All cells at the die center on tier 0; IO pads at their periphery
    positions. *)

val copy : t -> t

val endpoint_position : t -> Dco3d_netlist.Netlist.endpoint -> float * float * int
(** [(x, y, tier)] of a pin; IO pads are on tier 0. *)

val net_bbox : t -> Dco3d_netlist.Netlist.net -> float * float * float * float
(** [(x_min, y_min, x_max, y_max)] over all pins of the net. *)

val net_is_3d : t -> Dco3d_netlist.Netlist.net -> bool
(** True when the net's pins span both tiers (a "3D net" in the paper's
    feature terminology). *)

val hpwl : t -> float
(** Total half-perimeter wirelength over signal nets, um. *)

val cut_size : t -> int
(** Number of signal nets spanning both tiers — the paper's
    cut(T, B). *)

val displacement_from : t -> t -> float
(** Mean Euclidean (x, y) displacement per cell between two placements
    of the same netlist. *)

val max_displacement_from : t -> t -> float

val density_map : t -> tier:int -> nx:int -> ny:int -> Dco3d_tensor.Tensor.t
(** Cell-area utilization per bin in [\[0, ..\]] (1.0 = bin full). *)

val tier_areas : t -> float * float
(** Total placed cell area per tier (bottom, top). *)

val tier_balance : t -> float
(** [abs (bottom - top) / total] area imbalance in [\[0, 1\]]. *)

val clamp_to_die : t -> unit
(** Clamp all cell coordinates into the outline in place. *)
