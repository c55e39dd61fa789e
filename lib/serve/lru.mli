(** A string-keyed LRU map — the serve daemon's result cache.

    Plain mutable structure, {e not} thread-safe: the server guards it
    with its own state lock, so the cache itself stays free of locking
    policy.  [find] promotes the entry it returns to most-recently-used;
    [put] evicts the least-recently-used entry once [capacity] entries
    are resident.  A capacity of [0] disables the cache ([find] always
    misses, [put] stores and evicts nothing). *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Lookup; a hit becomes the most-recently-used entry. *)

val put : 'a t -> string -> 'a -> (string * 'a) option
(** Insert or replace; the entry becomes most-recently-used.  Evicts
    the least-recently-used entry when the cache is full and returns
    it, so the caller can persist it (the serve daemon writes it to
    its disk spill).  Replacing a resident
    key evicts nothing. *)

val mem : 'a t -> string -> bool
(** Membership without promotion. *)

val iter : 'a t -> (string -> 'a -> unit) -> unit
(** Iterate entries from most- to least-recently-used, without
    promoting anything.  Used to flush the live hot set to disk on
    graceful drain. *)

val clear : 'a t -> unit
(** Drop every entry; nothing is returned as evicted. *)
