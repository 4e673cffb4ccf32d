type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64 step, used for seeding and for [split]. *)
let splitmix64 seed =
  let z = Int64.add seed 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let s = ref (Int64.of_int seed) in
  let next () =
    s := Int64.add !s 0x9E3779B97F4A7C15L;
    splitmix64 !s
  in
  let s0 = next () in
  let s1 = next () in
  let s2 = next () in
  let s3 = next () in
  (* xoshiro must not start from the all-zero state. *)
  let s3 = if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s3 in
  { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let int64 t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = int64 t in
  let next_state = ref seed in
  let next () =
    next_state := Int64.add !next_state 0x9E3779B97F4A7C15L;
    splitmix64 !next_state
  in
  let s0 = next () in
  let s1 = next () in
  let s2 = next () in
  let s3 = next () in
  let s3 = if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s3 in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let bits30 t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t bound =
  assert (bound > 0);
  if bound <= 1 lsl 30 then begin
    (* Rejection sampling over 30-bit outputs to avoid modulo bias. *)
    let mask_bits = bits30 in
    let rec draw () =
      let r = mask_bits t in
      let v = r mod bound in
      if r - v > (1 lsl 30) - bound then draw () else v
    in
    draw ()
  end
  else
    (* Large bounds: use 62 bits; bias is negligible for any realistic use. *)
    let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    r mod bound

let unit_float t =
  (* 53 high bits scaled to [0,1). *)
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  r *. 0x1p-53

let float t bound = unit_float t *. bound
let bool t = Int64.compare (int64 t) 0L < 0
