let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let sum xs =
  (* Kahan summation: experiment harnesses sum tens of thousands of squared
     errors, where naive accumulation loses precision. *)
  let total = ref 0. and comp = ref 0. in
  for i = 0 to Array.length xs - 1 do
    let y = xs.(i) -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

let mean xs =
  check_nonempty "Descriptive.mean" xs;
  sum xs /. float_of_int (Array.length xs)

let sse xs =
  if Array.length xs = 0 then 0.
  else begin
    let m = mean xs in
    let acc = ref 0. in
    for i = 0 to Array.length xs - 1 do
      let d = xs.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    !acc
  end

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0. else sse xs /. float_of_int (n - 1)

let std xs = sqrt (variance xs)

let min xs =
  check_nonempty "Descriptive.min" xs;
  Array.fold_left Stdlib.min xs.(0) xs

let max xs =
  check_nonempty "Descriptive.max" xs;
  Array.fold_left Stdlib.max xs.(0) xs

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
}

let summarize xs =
  check_nonempty "Descriptive.summarize" xs;
  { n = Array.length xs; mean = mean xs; std = std xs; min = min xs; max = max xs }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.4f std=%.4f min=%.4f max=%.4f" s.n s.mean
    s.std s.min s.max
