type t = float array

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg ("Vector." ^ name ^ ": dimension mismatch")

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2_sq x = dot x x
let norm2 x = sqrt (norm2_sq x)

let add x y =
  check_dims "add" x y;
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let sub x y =
  check_dims "sub" x y;
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dist2 x y =
  check_dims "dist2" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc
