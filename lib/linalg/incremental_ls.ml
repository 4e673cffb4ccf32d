type t = {
  p : int;
  n_cols : int;
  gram : float array;
      (* upper triangle of H'H by rows: entry (a, b >= a) at
         [row_base n a + b] *)
  hy : float array; (* n_cols *)
  yty : float;
  jitter : float;
}

(* Entry (a, b >= a) of the packed Gram is at [row_base n a + b], with
   row_base = a*n - a(a-1)/2 - a: the rows before row [a] hold n, n-1,
   ..., n-a+1 entries, and row [a] starts at column [a].  a(2n-a-1) is
   even. *)
let row_base n a = (a * ((2 * n) - a - 1)) lsr 1

(* Where entry (a, b) of the symmetric Gram is stored: at (a, b) or at
   (b, a), whichever is in the upper triangle.  An index, not the float,
   so that a call that is not inlined boxes nothing. *)
let[@inline] index n a b = if a <= b then row_base n a + b else row_base n b + a

(* One row block of the design into the packed upper triangle, in
   gram_stubs.c, with consecutive columns [b] of one Gram row in SIMD
   lanes.  Each entry sums its rows in ascending order from +0, exactly
   the order [transpose design * design] sums it in, so the moments are
   bit-identical to the plain triple loop's whatever the blocking.  A
   call covers [a_block] Gram rows of one row block, which keeps each
   stretch of C short: a domain inside a C call cannot join a
   stop-the-world collection another domain requests. *)
external gram_packed :
  float array ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "archpred_linalg_gram_packed_byte" "archpred_linalg_gram_packed"
[@@noalloc]

let k_block = 48
let a_block = 32

let create ?(jitter = 0.) ~n_cols:n ~rows ~responses () =
  if n < 0 then invalid_arg "Incremental_ls.create: negative n_cols";
  if jitter < 0. then invalid_arg "Incremental_ls.create: negative jitter";
  let p = Array.length responses in
  let gram = Array.make (n * (n + 1) / 2) 0. in
  let hy = Array.make n 0. in
  let k0 = ref 0 in
  while !k0 < p do
    let k1 = Int.min p (!k0 + k_block) in
    let kn = k1 - !k0 in
    let h = rows !k0 k1 in
    if Array.length h < kn * n then
      invalid_arg "Incremental_ls.create: short row block";
    let a0 = ref 0 in
    while !a0 < n do
      let a1 = Int.min n (!a0 + a_block) in
      gram_packed h n gram kn !a0 a1;
      a0 := a1
    done;
    (* H'y in the same ascending row order, one design row at a time. *)
    for i = 0 to kn - 1 do
      let y = Array.unsafe_get responses (!k0 + i) and row = i * n in
      for j = 0 to n - 1 do
        Array.unsafe_set hy j
          (Array.unsafe_get hy j +. (Array.unsafe_get h (row + j) *. y))
      done
    done;
    k0 := k1
  done;
  let yty = ref 0. in
  for i = 0 to p - 1 do
    let y = Array.unsafe_get responses i in
    yty := !yty +. (y *. y)
  done;
  { p; n_cols = n; gram; hy; yty = !yty; jitter }

let matrix_rows design =
  let n = Matrix.cols design and h = Matrix.data design in
  let buf = Array.make (k_block * n) 0. in
  fun k0 k1 ->
    Array.blit h (k0 * n) buf 0 ((k1 - k0) * n);
    buf

let p t = t.p
let n_cols t = t.n_cols
let yty t = t.yty
let gram t a b =
  let n = t.n_cols in
  if a < 0 || a >= n || b < 0 || b >= n then
    invalid_arg "Incremental_ls.gram: out of bounds";
  t.gram.(index n a b)

let hy t a = t.hy.(a)

(* [push]'s forward substitution, a C kernel in gram_stubs.c. *)
external push_sweep : float array -> float array -> int -> int -> unit
  = "archpred_linalg_push_sweep"
[@@noalloc]

type factor = {
  ls : t;
  ids : int array; (* active columns, in push order *)
  mutable l : float array;
      (* lower-triangular Cholesky factor, L_rc at [c * n_cols + r]; grown
         by [grow] *)
  acc : float array; (* [push]'s new row of L, built in place *)
  z : float array; (* z = L^-1 (H'y)_S, kept in step with l *)
  mutable m : int;
  (* Lifetime work counters for observability: every push attempt pays the
     forward substitution whether or not it is accepted, so attempts are
     what gets counted, and every row discarded — popped, truncated, or a
     rejected attempt — counts as a pop, so [pushes - pops = m]. *)
  mutable pushes : int;
  mutable pops : int;
}

let factor ls =
  let n = max 1 ls.n_cols in
  {
    ls;
    ids = Array.make n (-1);
    l = Array.make (n * Int.min n 16) 0.;
    acc = Array.make n 0.;
    z = Array.make n 0.;
    m = 0;
    pushes = 0;
    pops = 0;
  }

let size f = f.m
let ids f = Array.sub f.ids 0 f.m

let shrink f k =
  f.pops <- f.pops + (f.m - k);
  f.m <- k

let pushes f = f.pushes
let pops f = f.pops

(* Room for column [m] of L, which is full: the column capacity doubles,
   up to [n_cols] columns.  A factor that holds a few dozen of several
   hundred candidate columns then never allocates the full square, and
   [push] allocates only here, a logarithmic number of times per factor. *)
let grow f m =
  let n = f.ls.n_cols in
  let l = Array.make (Int.min n (2 * m) * n) 0. in
  Array.blit f.l 0 l 0 (m * n);
  f.l <- l

let push f j =
  let ls = f.ls in
  let n = ls.n_cols in
  if j < 0 || j >= n then invalid_arg "Incremental_ls.push: bad column";
  let m = f.m in
  if m >= n then invalid_arg "Incremental_ls.push: factor full";
  f.pushes <- f.pushes + 1;
  if (m + 1) * n > Array.length f.l then grow f m;
  let l = f.l and ids = f.ids and gram = ls.gram and acc = f.acc in
  (* The new row a of L solves L a = G_{ids, j}, right-looking:
     a_q = acc_q / L_qq, then acc_k -= a_q L_kq down column q.  Each
     acc_k still takes its terms in ascending q, as the row-by-row dot
     product did. *)
  for k = 0 to m - 1 do
    Array.unsafe_set acc k
      (Array.unsafe_get gram (index n (Array.unsafe_get ids k) j))
  done;
  push_sweep l acc n m;
  let d2 = ref (Array.unsafe_get gram (index n j j) +. ls.jitter) in
  for q = 0 to m - 1 do
    let v = Array.unsafe_get acc q in
    d2 := !d2 -. (v *. v)
  done;
  if !d2 <= 0. then begin
    f.pops <- f.pops + 1;
    false
  end
  else begin
    let lmm = sqrt !d2 in
    (* z grows by one entry per push and truncates on pop, so the explained
       sum of squares is always [sum z_k^2] over the live prefix. *)
    let zm = ref ls.hy.(j) in
    for k = 0 to m - 1 do
      let v = Array.unsafe_get acc k in
      Array.unsafe_set l ((k * n) + m) v;
      zm := !zm -. (v *. Array.unsafe_get f.z k)
    done;
    Array.unsafe_set l ((m * n) + m) lmm;
    f.z.(m) <- !zm /. lmm;
    ids.(m) <- j;
    f.m <- m + 1;
    true
  end

let pop f =
  if f.m = 0 then invalid_arg "Incremental_ls.pop: empty factor";
  (* L is lower-triangular: dropping the last row and column is exact
     truncation, no refactorisation. *)
  shrink f (f.m - 1)

(* Row [k] of L (and entry [k] of z) depends only on [ids.(0..k)], the
   moments and the jitter, so the rows a live factor shares with [cols]
   are exactly the rows a fresh push of [cols] would build. *)
let rec shared_prefix f k cols =
  match cols with
  | j :: rest when k < f.m && Array.unsafe_get f.ids k = j ->
      shared_prefix f (k + 1) rest
  | _ -> k

let rec drop k cols =
  match cols with _ :: rest when k > 0 -> drop (k - 1) rest | _ -> cols

let rec push_all f cols =
  match cols with [] -> true | j :: rest -> push f j && push_all f rest

let set f cols =
  let keep = shared_prefix f 0 cols in
  shrink f keep;
  let ok = push_all f (drop keep cols) in
  if not ok then shrink f 0;
  ok

let explained f =
  let acc = ref 0. in
  for k = 0 to f.m - 1 do
    let z = Array.unsafe_get f.z k in
    acc := !acc +. (z *. z)
  done;
  !acc

let rss f = Float.max 0. (f.ls.yty -. explained f)

let sigma2 f =
  if f.m = 0 || f.m >= f.ls.p then None
  else Some (rss f /. float_of_int f.ls.p)

let solve f =
  let m = f.m and n = f.ls.n_cols in
  let w = Array.sub f.z 0 m in
  (* Back-substitute L^T w = z; w.(k) pairs with (ids f).(k). *)
  for i = m - 1 downto 0 do
    let acc = ref w.(i) in
    for j = i + 1 to m - 1 do
      acc := !acc -. (Array.unsafe_get f.l ((i * n) + j) *. w.(j))
    done;
    w.(i) <- !acc /. Array.unsafe_get f.l ((i * n) + i)
  done;
  w
