module Matrix = Archpred_linalg.Matrix
module Least_squares = Archpred_linalg.Least_squares
module Ils = Archpred_linalg.Incremental_ls
module Simd = Archpred_simd.Simd

type center = { c : float array; r : float array }

let check_center { c; r } =
  if Array.length c <> Array.length r then
    invalid_arg "Network: center/radius arity mismatch";
  Array.iter
    (fun radius ->
      if not (radius > 0.) then invalid_arg "Network: non-positive radius")
    r

(* The scalar reference path.  Two deliberate choices keep it bitwise
   reproducible by the batch kernel (Batch_kernel) on every instruction
   set: the distance uses a multiply by the reciprocal radius — the
   packed storage precomputes the identical [1. /. r] — and the
   exponential is the deterministic table-driven [Rbf_math.exp_neg]
   rather than libm's exp, whose last-ulp rounding varies across
   libms.  Division by r and multiplication by 1/r differ in the last
   ulp, so the two must never be mixed. *)
let basis { c; r } x =
  let n = Array.length c in
  if Array.length x <> n then invalid_arg "Network.basis: arity mismatch";
  let acc = ref 0. in
  for k = 0 to n - 1 do
    let d = (x.(k) -. c.(k)) *. (1. /. r.(k)) in
    acc := !acc +. (d *. d)
  done;
  Rbf_math.exp_neg !acc

type t = { centers : center array; weights : float array }

let eval t x =
  let acc = ref 0. in
  for j = 0 to Array.length t.centers - 1 do
    acc := !acc +. (t.weights.(j) *. basis t.centers.(j) x)
  done;
  !acc

type packed = Batch_kernel.t

let pack t =
  if Array.length t.centers = 0 then invalid_arg "Network.pack: no centers";
  Array.iter check_center t.centers;
  Batch_kernel.pack
    ~dim:(Array.length t.centers.(0).c)
    ~centers:(Array.map (fun ctr -> ctr.c) t.centers)
    ~radii:(Array.map (fun ctr -> ctr.r) t.centers)
    ~weights:t.weights

let eval_batch packed points = Batch_kernel.eval_points packed points

(* The design entry of rbf_kernel_stubs.c (AVX2, dim <= 64), which fills
   rows of the matrix: centers and 1/r flat, the points in place, the
   destination, then m, dim, the point range and the point that lands in
   row 0 of the destination. *)
external design_stub :
  float array -> float array -> float array array -> float array ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> Batch_kernel.buffer ->
  Batch_kernel.buffer -> unit
  = "archpred_rbf_design_bytecode" "archpred_rbf_design"
[@@noalloc]

(* Points per C call: whole 8-point blocks, and well under a millisecond
   (a domain in a [@@noalloc] call cannot join a collection). *)
let design_block = 64

(* Checks the arities and packs the centers once.  [write dst i0 i1 h0]
   then puts rows [i0, i1) of the design into [dst], point [i] at row
   [i - h0]. *)
let design_writer centers points =
  let m = Array.length centers and n = Array.length points in
  let dim = if n > 0 then Array.length points.(0) else 0 in
  let arity v = Array.length v <> dim in
  if m > 0 && n > 0
     && (Array.exists (fun ctr -> arity ctr.c || arity ctr.r) centers
        || Array.exists arity points)
  then invalid_arg "Network.design_matrix: arity mismatch";
  let scalar = match Simd.training () with Scalar -> true | _ -> false in
  if m = 0 || n = 0 || dim > 64 || scalar then fun dst i0 i1 h0 ->
    for i = i0 to i1 - 1 do
      let row = (i - h0) * m in
      for j = 0 to m - 1 do
        dst.(row + j) <- basis centers.(j) points.(i)
      done
    done
  else begin
    (* Bitwise the [1. /. r.(k)] of [basis], as in [pack]. *)
    let ir = Array.init (m * dim) (fun x -> 1. /. centers.(x / dim).r.(x mod dim)) in
    let cs = Array.init (m * dim) (fun x -> centers.(x / dim).c.(x mod dim)) in
    fun dst i0 i1 h0 ->
      let i = ref i0 in
      while !i < i1 do
        let e = Int.min i1 (!i + design_block) in
        design_stub cs ir points dst m dim !i e h0 Rbf_math.t2j Rbf_math.pow2;
        i := e
      done
  end

let design_matrix centers points =
  let write = design_writer centers points in
  let n = Array.length points in
  let h = Matrix.create n (Array.length centers) in
  write (Matrix.data h) 0 n 0;
  h

let design_rows centers points =
  let write = design_writer centers points in
  let n = Array.length points in
  let buf = Array.make (Ils.k_block * Array.length centers) 0. in
  fun k0 k1 ->
    if k0 < 0 || k1 > n || k1 - k0 > Ils.k_block then
      invalid_arg "Network.design_rows: bad row range";
    write buf k0 k1 k0;
    buf

type fit_diagnostics = { rss : float; sigma2 : float; regularized : bool }

(* Deep tree nodes produce nearly coincident candidate centers, so the
   Gaussian design matrix can be severely ill-conditioned even when QR
   technically succeeds — yielding weight vectors in the millions whose
   cancellation is numerically fragile.  A small default ridge keeps the
   weights bounded and matches the jitter the subset scorer applies during
   selection. *)
let default_ridge = 1e-8

let fit ?(ridge = default_ridge) ~centers ~points ~responses () =
  if Array.length centers = 0 then invalid_arg "Network.fit: no centers";
  if Array.length points <> Array.length responses then
    invalid_arg "Network.fit: points/responses mismatch";
  if Array.length points < Array.length centers then
    invalid_arg "Network.fit: more centers than points";
  Array.iter check_center centers;
  let h = design_matrix centers points in
  let f =
    if ridge > 0. then Least_squares.fit_ridge h responses ~lambda:ridge
    else Least_squares.fit h responses
  in
  ( { centers; weights = f.Least_squares.coefficients },
    {
      rss = f.Least_squares.rss;
      sigma2 = f.Least_squares.sigma2;
      regularized = f.Least_squares.regularized;
    } )
