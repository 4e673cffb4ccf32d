type t = float array

let norm2_sq x =
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. x.(i))
  done;
  !acc

let sub x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.sub: dimension mismatch";
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))
