(* Grow-only, per-domain scratch arena.

   The kernel engine needs short-lived buffers on every call: the
   gather descriptors of a GEMM, a stride phase's weights and results,
   RUDY's per-chunk partial congestion maps.  Allocating them fresh each time made every
   training step and every RUDY evaluation pay minor-heap churn and
   major-GC pressure proportional to the scratch footprint (PR 1's
   rudy_map spent more time allocating partial maps than accumulating
   into them on small grids).

   Each domain owns a private list of slots (so borrowing never takes a
   lock and pool workers cannot contend); a slot is a float array that
   is handed out, used, and returned, and is only ever replaced by a
   bigger one.  Capacities are rounded up to powers of two so that
   nearby request sizes reuse one slot instead of growing a ladder of
   near-duplicates.  Steady state — e.g. the Predictor.train epoch loop
   calling the same convolution shapes every step — performs zero
   scratch allocations. *)

(* Float and int slots share one lifecycle: the gather-GEMM's (off, y,
   x) descriptors borrow int words exactly as its phases borrow floats,
   so each element type gets its own grow-only slot list in the same
   per-domain arena. *)
type 'a slot = { mutable buf : 'a array; mutable in_use : bool }

type arena = {
  mutable slots : float slot list;
  mutable islots : int slot list;
  mutable borrows : int;  (* with_* calls served *)
  mutable grows : int;  (* calls that had to allocate or grow a slot *)
}

let key =
  Domain.DLS.new_key (fun () ->
      { slots = []; islots = []; borrows = 0; grows = 0 })

let round_capacity n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

(* Smallest free slot that fits, so a small request does not pin the
   big GEMM slot while a nested borrow is live.  [add] registers a new
   slot with the arena; [zero] fills fresh buffers. *)
let acquire arena slots ~add ~zero n =
  arena.borrows <- arena.borrows + 1;
  let best = ref None in
  List.iter
    (fun s ->
      if (not s.in_use) && Array.length s.buf >= n then
        match !best with
        | Some b when Array.length b.buf <= Array.length s.buf -> ()
        | _ -> best := Some s)
    slots;
  match !best with
  | Some s ->
      s.in_use <- true;
      s
  | None ->
      arena.grows <- arena.grows + 1;
      (* grow the largest free slot rather than adding one, so the
         arena converges to a few big buffers instead of accumulating
         every size ever requested *)
      let grown = ref None in
      List.iter
        (fun s ->
          if not s.in_use then
            match !grown with
            | Some b when Array.length b.buf >= Array.length s.buf -> ()
            | _ -> grown := Some s)
        slots;
      let cap = round_capacity n in
      (match !grown with
      | Some s ->
          s.buf <- Array.make cap zero;
          s.in_use <- true;
          s
      | None ->
          let s = { buf = Array.make cap zero; in_use = true } in
          add arena s;
          s)

let borrow name slots ~add ~zero n f =
  if n < 0 then invalid_arg (name ^ ": negative size");
  let arena = Domain.DLS.get key in
  let s = acquire arena (slots arena) ~add ~zero n in
  Fun.protect ~finally:(fun () -> s.in_use <- false) (fun () -> f s.buf)

let with_floats n f =
  borrow "Workspace.with_floats" (fun a -> a.slots)
    ~add:(fun a s -> a.slots <- s :: a.slots)
    ~zero:0. n f

let with_ints n f =
  borrow "Workspace.with_ints" (fun a -> a.islots)
    ~add:(fun a s -> a.islots <- s :: a.islots)
    ~zero:0 n f

let live_floats () =
  let arena = Domain.DLS.get key in
  List.fold_left (fun acc s -> acc + Array.length s.buf) 0 arena.slots

let live_scratch_bytes () =
  let arena = Domain.DLS.get key in
  (8 * live_floats ())
  + List.fold_left (fun acc s -> acc + (8 * Array.length s.buf)) 0 arena.islots

let borrows () = (Domain.DLS.get key).borrows
let grows () = (Domain.DLS.get key).grows

let reset () =
  let arena = Domain.DLS.get key in
  if
    List.exists (fun s -> s.in_use) arena.slots
    || List.exists (fun s -> s.in_use) arena.islots
  then invalid_arg "Workspace.reset: a buffer is still borrowed";
  arena.slots <- [];
  arena.islots <- [];
  arena.borrows <- 0;
  arena.grows <- 0
