(** Grow-only, per-domain scratch arena for kernel workspaces.

    Hot kernels (GEMM gather descriptors, stride-phase weights and
    results, RUDY partial congestion maps) borrow buffers here instead
    of allocating fresh arrays per call.  Each domain owns a private arena
    ([Domain.DLS]), so borrowing is lock-free and pool workers never
    contend; buffers only ever grow, so steady-state workloads — the
    [Predictor.train] epoch loop re-running the same convolution shapes
    every step — perform zero scratch allocations.

    Borrowed buffers may be {e larger} than requested (capacities round
    up to powers of two) and contain stale data; callers must write
    before reading.  Borrows nest: each [with_floats] or [with_ints]
    gets a distinct slot. *)

val with_floats : int -> (float array -> 'a) -> 'a
(** [with_floats n f] calls [f buf] with a scratch buffer of at least
    [n] floats and returns the result; the buffer returns to the arena
    afterwards (also on exception).  Contents are unspecified — write
    before reading.  The buffer must not escape [f].
    @raise Invalid_argument on negative [n]. *)

val with_ints : int -> (int array -> 'a) -> 'a
(** [with_ints n f] borrows a scratch int buffer of at least [n]
    words — the gather-GEMM's [(off, y, x)] row and column
    descriptors.  Same lifecycle and caveats as {!with_floats}.
    @raise Invalid_argument on negative [n]. *)

val live_floats : unit -> int
(** Floats currently retained by this domain's arena (capacity, whether
    borrowed or free). *)

val borrows : unit -> int
(** Borrows served on this domain since the last {!reset}. *)

val grows : unit -> int
(** Borrows that had to allocate or grow a slot — in steady state this
    stops increasing while {!borrows} keeps counting. *)

val reset : unit -> unit
(** Drop this domain's retained buffers (e.g. after a one-off huge
    kernel).  @raise Invalid_argument if a buffer is still borrowed. *)
