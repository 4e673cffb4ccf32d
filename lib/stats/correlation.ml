let check name xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg (name ^ ": length mismatch");
  if Array.length xs < 2 then invalid_arg (name ^ ": need at least 2 points")

(* Pearson correlation of two checked samples; 0 if either is constant. *)
let pearson xs ys =
  let n = Array.length xs in
  let mx = Descriptive.mean xs and my = Descriptive.mean ys in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if Float.equal !sxx 0. || Float.equal !syy 0. then 0. else !sxy /. sqrt (!sxx *. !syy)

(* Ranks with ties sharing their average rank. *)
let ranks xs =
  let n = Array.length xs in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Float.compare xs.(a) xs.(b)) order;
  let r = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(order.(!j + 1)) = xs.(order.(!i)) do incr j done;
    let avg = float_of_int (!i + !j) /. 2. +. 1. in
    for k = !i to !j do
      r.(order.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let spearman xs ys =
  check "Correlation.spearman" xs ys;
  pearson (ranks xs) (ranks ys)
