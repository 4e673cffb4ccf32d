module Parallel = Archpred_stats.Parallel

let check points =
  if Array.length points = 0 then invalid_arg "Discrepancy: empty sample";
  Array.length points.(0)

(* Both closed forms below contain a double sum over point pairs whose
   kernel is symmetric in (i, j).  We therefore sum the diagonal and the
   strict upper triangle only — half the pairwise work — and parallelise
   the triangle by rows.  Each row's partial sum is written to its own
   slot and the slots are folded in row order afterwards, so the result is
   bit-identical for every domain count (only the grouping of *rows* onto
   domains varies, never the order of additions within the total).

   The row sums run in discrepancy_stubs.c, over a dim-major copy of the
   points (coordinate [k] of point [j] at [k * n + j]), with the pairs of
   a row in SIMD lanes.  Every pair and every row sum keeps the operation
   order of the plain OCaml loop, so each path returns the same bits;
   [force_scalar] selects the portable C path for the cross-path tests. *)

external star_row :
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed])
  = "archpred_discrepancy_star_row_byte" "archpred_discrepancy_star_row"
[@@noalloc]

external centered_row :
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed])
  = "archpred_discrepancy_centered_row_byte"
    "archpred_discrepancy_centered_row"
[@@noalloc]

(* Coordinate [k] of point [j] at [k * n + j]. *)
let dim_major points ~d =
  let n = Array.length points in
  Array.init (d * n) (fun i -> points.(i mod n).(i / n))

(* Warnock's closed form:
   D2*^2 = 3^-d
         - (2^(1-d) / n)   sum_i prod_k (1 - x_ik^2)
         + (1 / n^2)       sum_{i,j} prod_k (1 - max(x_ik, x_jk)) *)
let l2_star ?(force_scalar = false) ?domains points =
  let d = check points in
  let n = Array.length points in
  let nf = float_of_int n in
  let term1 = 3. ** float_of_int (-d) in
  let sum2 = ref 0. in
  let diag = ref 0. in
  Array.iter
    (fun x ->
      let prod = ref 1. in
      let prod_diag = ref 1. in
      for k = 0 to d - 1 do
        prod := !prod *. (1. -. (x.(k) *. x.(k)));
        (* max(x_ik, x_ik) = x_ik *)
        prod_diag := !prod_diag *. (1. -. x.(k))
      done;
      sum2 := !sum2 +. !prod;
      diag := !diag +. !prod_diag)
    points;
  let term2 = 2. ** float_of_int (1 - d) /. nf *. !sum2 in
  let xt = dim_major points ~d in
  let mode = if force_scalar then 0 else 1 in
  let row_sums = Parallel.init ?domains n (fun i -> star_row xt n d i mode) in
  let off = Array.fold_left ( +. ) 0. row_sums in
  let term3 = (!diag +. (2. *. off)) /. (nf *. nf) in
  sqrt (Float.max 0. (term1 -. term2 +. term3))

(* Hickernell's centered L2 discrepancy:
   CD^2 = (13/12)^d
        - (2/n)   sum_i prod_k (1 + |z_ik|/2 - z_ik^2/2)
        + (1/n^2) sum_{i,j} prod_k (1 + |z_ik|/2 + |z_jk|/2 - |x_ik - x_jk|/2)
   where z_ik = x_ik - 1/2. *)
let centered_l2 ?(force_scalar = false) ?domains points =
  let d = check points in
  let n = Array.length points in
  let nf = float_of_int n in
  let term1 = (13. /. 12.) ** float_of_int d in
  let sum2 = ref 0. in
  let diag = ref 0. in
  Array.iter
    (fun x ->
      let prod = ref 1. in
      let prod_diag = ref 1. in
      for k = 0 to d - 1 do
        let zk = abs_float (x.(k) -. 0.5) in
        prod := !prod *. (1. +. (0.5 *. zk) -. (0.5 *. zk *. zk));
        (* i = j: z_i = z_j and |x_i - x_j| = 0 *)
        prod_diag := !prod_diag *. (1. +. zk)
      done;
      sum2 := !sum2 +. !prod;
      diag := !diag +. !prod_diag)
    points;
  let term2 = 2. /. nf *. !sum2 in
  (* The pair terms read the coordinates and the halves [0.5 *. z_jk]:
     the kernel takes the second as [d] more planes after the first. *)
  let x = dim_major points ~d in
  let xt = Array.append x (Array.map (fun v -> 0.5 *. abs_float (v -. 0.5)) x) in
  let mode = if force_scalar then 0 else 1 in
  let row_sums =
    Parallel.init ?domains n (fun i -> centered_row xt n d i mode)
  in
  let off = Array.fold_left ( +. ) 0. row_sums in
  let term3 = (!diag +. (2. *. off)) /. (nf *. nf) in
  sqrt (Float.max 0. (term1 -. term2 +. term3))

type kind = Star | Centered

let compute ?domains kind points =
  match kind with
  | Star -> l2_star ?domains points
  | Centered -> centered_l2 ?domains points
