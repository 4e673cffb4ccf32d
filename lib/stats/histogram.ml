type t = {
  lo : float;
  hi : float;
  counts : int array;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
  if not (lo < hi) then invalid_arg "Histogram.create: requires lo < hi";
  { lo; hi; counts = Array.make bins 0; total = 0 }

let bin_index t x =
  let nbins = Array.length t.counts in
  let raw =
    int_of_float (float_of_int nbins *. ((x -. t.lo) /. (t.hi -. t.lo)))
  in
  Stdlib.max 0 (Stdlib.min (nbins - 1) raw)

let add t x =
  let i = bin_index t x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let add_all t xs = Array.iter (add t) xs
let count t i = t.counts.(i)
let total t = t.total

let bin_range t i =
  let nbins = float_of_int (Array.length t.counts) in
  let w = (t.hi -. t.lo) /. nbins in
  (t.lo +. (float_of_int i *. w), t.lo +. (float_of_int (i + 1) *. w))

let of_array ~lo ~hi ~bins xs =
  let t = create ~lo ~hi ~bins in
  add_all t xs;
  t

let pp ?(width = 40) () ppf t =
  let peak = Array.fold_left Stdlib.max 1 t.counts in
  Array.iteri
    (fun i c ->
      let lo, hi = bin_range t i in
      let bar = String.make (c * width / peak) '#' in
      Format.fprintf ppf "[%8.3f, %8.3f) %4d %s@." lo hi c bar)
    t.counts
