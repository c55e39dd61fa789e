(** RUDY and PinRUDY routing-demand estimation (paper section II-B).

    RUDY (Rectangular Uniform wire DensitY, Eq. 1-2) spreads each net's
    expected wire area uniformly over its bounding box: tile [(m, n)]
    accumulates [(1/w + 1/h) * overlap / tile_area].  PinRUDY (Eq. 3)
    accumulates [(1/w + 1/h)] at each pin's tile.

    The 3D extension follows section III-B1: a {e 2D net} has all pins
    on one die and contributes to that die's 2D maps; a {e 3D net}
    spans both dies and contributes to both dies' 3D maps, scaled by
    0.5 to account for the extra 3D routing resources. *)

type kind =
  | Two_d  (** nets with every pin on the queried die *)
  | Three_d  (** nets spanning both dies (0.5-scaled) *)
  | All  (** both, unscaled — the classic 2D estimator of Fig. 5c *)

val net_weight : float -> float -> float
(** [net_weight w h] is [(1/w + 1/h)] with both spans clamped below by
    a minimum feature size so point nets stay finite. *)

val rudy_map :
  Dco3d_place.Placement.t -> tier:int -> kind:kind -> nx:int -> ny:int ->
  Dco3d_tensor.Tensor.t
(** Eq. 2 accumulated over the selected signal nets, shape [[ny; nx]]. *)

val pin_rudy_map :
  Dco3d_place.Placement.t -> tier:int -> kind:kind -> nx:int -> ny:int ->
  Dco3d_tensor.Tensor.t
(** Eq. 3; only pins physically on [tier] accumulate. *)

val accumulate_net :
  Dco3d_tensor.Tensor.t ->
  die_w:float -> die_h:float ->
  bbox:float * float * float * float ->
  weight:float ->
  unit
(** Add one net's RUDY contribution into an existing [[ny; nx]] map —
    the kernel shared with the differentiable soft maps of the
    optimizer.
    @raise Invalid_argument if the map has no tiles ([nx < 1] or
    [ny < 1]). *)
