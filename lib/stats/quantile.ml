let quantile_sorted sorted q =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor h) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let quantiles xs qs =
  if Array.length xs = 0 then invalid_arg "Quantile.quantiles: empty array";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  List.map
    (fun q ->
      if q < 0. || q > 1. then invalid_arg "Quantile.quantiles: out of [0,1]";
      quantile_sorted sorted q)
    qs
