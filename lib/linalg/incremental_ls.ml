type t = {
  mutable p : int;
  n_cols : int;
  gram : float array; (* n_cols x n_cols, row-major; symmetric *)
  hy : float array; (* n_cols *)
  mutable yty : float;
  jitter : float;
  mutable generation : int; (* bumped by every [add_row] *)
}

(* The Gram matrix is built in gram_stubs.c straight from the row-major
   design, with consecutive columns [b] of one Gram row in SIMD lanes.
   The design rows are taken in blocks of [k_block], so a block stays in
   cache while every Gram row adds it in; each entry still sums its rows
   in ascending order from +0, exactly the order [transpose design *
   design] sums it in, so the moments are bit-identical to the plain
   triple loop's.  A call covers [a_block] Gram rows of one row block,
   which keeps each stretch of C short: a domain inside a C call cannot
   join a stop-the-world collection another domain requests. *)
external gram_block :
  float array ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "archpred_linalg_gram_block_byte" "archpred_linalg_gram_block"
[@@noalloc]

let k_block = 48
let a_block = 32

let create ?(force_scalar = false) ?(jitter = 0.) ~design ~responses () =
  let p = Matrix.rows design in
  if p <> Array.length responses then
    invalid_arg "Incremental_ls.create: dimension mismatch";
  if jitter < 0. then invalid_arg "Incremental_ls.create: negative jitter";
  let n = Matrix.cols design in
  let h = Matrix.data design in
  let gram = Array.make (n * n) 0. in
  let mode = if force_scalar then 0 else 1 in
  let k0 = ref 0 in
  while !k0 < p do
    let k1 = Int.min p (!k0 + k_block) in
    let a0 = ref 0 in
    while !a0 < n do
      let a1 = Int.min n (!a0 + a_block) in
      gram_block h n gram !k0 k1 !a0 a1 mode;
      a0 := a1
    done;
    k0 := k1
  done;
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      Array.unsafe_set gram ((b * n) + a) (Array.unsafe_get gram ((a * n) + b))
    done
  done;
  (* H'y in the same ascending row order, one design row at a time. *)
  let hy = Array.make n 0. in
  for i = 0 to p - 1 do
    let y = responses.(i) and row = i * n in
    for j = 0 to n - 1 do
      Array.unsafe_set hy j
        (Array.unsafe_get hy j +. (Array.unsafe_get h (row + j) *. y))
    done
  done;
  let yty = Array.fold_left (fun acc y -> acc +. (y *. y)) 0. responses in
  { p; n_cols = n; gram; hy; yty; jitter; generation = 0 }

let p t = t.p
let n_cols t = t.n_cols
let yty t = t.yty
let gram t a b =
  let n = t.n_cols in
  if a < 0 || a >= n || b < 0 || b >= n then
    invalid_arg "Incremental_ls.gram: out of bounds";
  t.gram.((a * n) + b)

let hy t a = t.hy.(a)

(* Streaming (rank-1) moment update: one new observation row extends the
   Gram and moment sums without touching the existing entries' history, so
   pushing rows one by one in index order is deterministic whatever batch
   shape they arrived in.  Runs on the streaming-refit hot path, so it must
   not allocate: plain loops over the preallocated moment arrays. *)
let add_row t ~row ~y =
  if Array.length row <> t.n_cols then
    invalid_arg "Incremental_ls.add_row: row width mismatch";
  let n = t.n_cols in
  let gram = t.gram and hy = t.hy in
  for a = 0 to n - 1 do
    let ha = Array.unsafe_get row a in
    let arow = a * n in
    for b = 0 to n - 1 do
      Array.unsafe_set gram (arow + b)
        (Array.unsafe_get gram (arow + b) +. (ha *. Array.unsafe_get row b))
    done;
    Array.unsafe_set hy a (Array.unsafe_get hy a +. (ha *. y))
  done;
  t.yty <- t.yty +. (y *. y);
  t.p <- t.p + 1;
  t.generation <- t.generation + 1

type factor = {
  ls : t;
  ids : int array; (* active columns, in push order *)
  mutable l : float array;
      (* lower-triangular Cholesky rows, stride n_cols; grown by [grow] *)
  z : float array; (* z = L^-1 (H'y)_S, kept in step with l *)
  mutable m : int;
  mutable generation : int; (* [ls.generation] its rows were built under *)
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
    z = Array.make n 0.;
    m = 0;
    generation = ls.generation;
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

(* Room for row [m] of L, which is full: the row capacity doubles, up
   to [n_cols] rows.  A factor that holds a few dozen of several hundred
   candidate columns then never allocates the full square, and [push]
   allocates only here, a logarithmic number of times per factor. *)
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
  if m = 0 then f.generation <- ls.generation;
  if (m + 1) * n > Array.length f.l then grow f m;
  let l = f.l and ids = f.ids and gram = ls.gram in
  let row = m * n in
  (* Forward-substitute the new row of L against the existing rows:
     L_mk = (G_{ids_k, j} - sum_{q<k} L_mq L_kq) / L_kk. *)
  for k = 0 to m - 1 do
    let acc = ref (Array.unsafe_get gram ((Array.unsafe_get ids k * n) + j)) in
    let krow = k * n in
    for q = 0 to k - 1 do
      acc :=
        !acc -. (Array.unsafe_get l (row + q) *. Array.unsafe_get l (krow + q))
    done;
    Array.unsafe_set l (row + k) (!acc /. Array.unsafe_get l (krow + k))
  done;
  let d2 = ref (Array.unsafe_get gram ((j * n) + j) +. ls.jitter) in
  for q = 0 to m - 1 do
    let v = Array.unsafe_get l (row + q) in
    d2 := !d2 -. (v *. v)
  done;
  if !d2 <= 0. then begin
    f.pops <- f.pops + 1;
    false
  end
  else begin
    let lmm = sqrt !d2 in
    Array.unsafe_set l (row + m) lmm;
    (* z grows by one entry per push and truncates on pop, so the explained
       sum of squares is always [sum z_k^2] over the live prefix. *)
    let zm = ref ls.hy.(j) in
    for k = 0 to m - 1 do
      zm := !zm -. (Array.unsafe_get l (row + k) *. Array.unsafe_get f.z k)
    done;
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
   are exactly the rows a fresh push of [cols] would build — provided no
   [add_row] has moved the moments since they were built. *)
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
  let keep =
    if f.generation = f.ls.generation then shared_prefix f 0 cols else 0
  in
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
      acc := !acc -. (Array.unsafe_get f.l ((j * n) + i) *. w.(j))
    done;
    w.(i) <- !acc /. Array.unsafe_get f.l ((i * n) + i)
  done;
  w
