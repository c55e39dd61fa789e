(* Order statistics shared by the benchmark and ledger_check. *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method), so spreads printed here are the ones the
   acceptance protocol computes.  Needs at least two values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then (nan, nan, nan)
  else begin
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
  end

(* Inter-quartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else Float.abs ((q3 -. q1) /. q2)
