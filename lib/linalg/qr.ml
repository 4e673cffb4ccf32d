type t = {
  qr : float array;
      (* p x m, column-major (column [k] at [k * p]): Householder vectors
         on and below the diagonal, R above it *)
  p : int;
  m : int;
  rdiag : float array;
}

exception Rank_deficient

(* Apply the reflector stored in [v] from offset [vo] (rows [k..p-1]) to
   the vector in [x] from offset [xo]: [x <- x - (v'x / v_k) v].  Both
   runs are contiguous in the column-major layout. *)
let apply_reflector v ~vo x ~xo ~k ~p =
  let s = ref 0. in
  for i = k to p - 1 do
    s := !s +. (Array.unsafe_get v (vo + i) *. Array.unsafe_get x (xo + i))
  done;
  let s = -. !s /. Array.unsafe_get v (vo + k) in
  for i = k to p - 1 do
    Array.unsafe_set x (xo + i)
      (Array.unsafe_get x (xo + i) +. (s *. Array.unsafe_get v (vo + i)))
  done

(* Householder QR in place over a column-major [p x m] array. *)
let factorize qr ~p ~m =
  let rdiag = Array.make m 0. in
  for k = 0 to m - 1 do
    let ck = k * p in
    (* Norm of the k-th column below the diagonal. *)
    let nrm = ref 0. in
    for i = k to p - 1 do
      let v = qr.(ck + i) in
      nrm := sqrt ((!nrm *. !nrm) +. (v *. v))
    done;
    if not (Float.equal !nrm 0.) then begin
      let nrm = if qr.(ck + k) < 0. then -. !nrm else !nrm in
      for i = k to p - 1 do
        qr.(ck + i) <- qr.(ck + i) /. nrm
      done;
      qr.(ck + k) <- qr.(ck + k) +. 1.;
      (* Apply the reflector to the remaining columns. *)
      for j = k + 1 to m - 1 do
        apply_reflector qr ~vo:ck qr ~xo:(j * p) ~k ~p
      done;
      rdiag.(k) <- -.nrm
    end
    else rdiag.(k) <- 0.
  done;
  { qr; p; m; rdiag }

let decompose a =
  let p = Matrix.rows a and m = Matrix.cols a in
  if p < m then invalid_arg "Qr.decompose: more columns than rows";
  let qr = Array.create_float (p * m) in
  for i = 0 to p - 1 do
    for j = 0 to m - 1 do
      qr.((j * p) + i) <- Matrix.get a i j
    done
  done;
  factorize qr ~p ~m

let is_full_rank t =
  Array.for_all (fun d -> abs_float d > 1e-12) t.rdiag

let solve t y =
  let p = t.p and m = t.m and qr = t.qr in
  if Array.length y <> p then invalid_arg "Qr.solve: bad length";
  if not (is_full_rank t) then raise Rank_deficient;
  let b = Array.copy y in
  (* Apply Q' to y. *)
  for k = 0 to m - 1 do
    apply_reflector qr ~vo:(k * p) b ~xo:0 ~k ~p
  done;
  (* Back-substitute R w = Q' y. *)
  let w = Array.make m 0. in
  for k = m - 1 downto 0 do
    let acc = ref b.(k) in
    for j = k + 1 to m - 1 do
      acc := !acc -. (qr.((j * p) + k) *. w.(j))
    done;
    w.(k) <- !acc /. t.rdiag.(k)
  done;
  w

let r t =
  Matrix.init t.m t.m (fun i j ->
      if i = j then t.rdiag.(i)
      else if i < j then t.qr.((j * t.p) + i)
      else 0.)

let least_squares a y = solve (decompose a) y

let least_squares_ridge a y ~lambda =
  if lambda < 0. then invalid_arg "Qr.least_squares_ridge: lambda < 0";
  let p = Matrix.rows a and m = Matrix.cols a in
  if Array.length y <> p then invalid_arg "Qr.least_squares_ridge: bad length";
  let s = sqrt lambda in
  (* [A; sqrt(lambda) I], built straight into the column-major layout. *)
  let rows = p + m in
  let aug = Array.make (rows * m) 0. in
  for j = 0 to m - 1 do
    let cj = j * rows in
    for i = 0 to p - 1 do
      aug.(cj + i) <- Matrix.get a i j
    done;
    aug.(cj + p + j) <- s
  done;
  let y_aug = Array.make rows 0. in
  Array.blit y 0 y_aug 0 p;
  solve (factorize aug ~p:rows ~m) y_aug

let residual_sum_squares a w y =
  let fitted = Matrix.mul_vec a w in
  let acc = ref 0. in
  for i = 0 to Array.length y - 1 do
    let d = fitted.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc
