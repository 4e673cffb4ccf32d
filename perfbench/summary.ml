(* Order statistics of one metric's samples.  Quartiles follow Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method) and
   the median [statistics.median], so a summary printed here is the one a
   reader recomputes from the raw values with the standard library. *)

type t = { median : float; q1 : float; q3 : float; n : int }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [statistics.quantiles] with method "exclusive": position i*(n+1)/4,
   clamped to the interior, interpolated in exact integer steps. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Summary.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.quantile: no samples";
  let pos = Float.max 0. (Float.min 1. q) *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let of_samples xs =
  let q1, q3 = quartiles xs in
  { median = median xs; q1; q3; n = List.length xs }

let rel_spread t =
  if Float.equal t.median 0. then 0. else (t.q3 -. t.q1) /. Float.abs t.median
