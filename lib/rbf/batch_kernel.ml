(* Struct-of-arrays packing and batched evaluation; the hot loops live
   in rbf_kernel_stubs.c.  This module is one of the two places
   sanctioned by archpred-analyze's unsafe-index rule to use unchecked
   bigarray accessors: every loop below runs behind an explicit length
   check, so the per-element bounds tests would only re-verify what the
   guard already established. *)

open Bigarray

type buffer = (float, float64_elt, c_layout) Array1.t

type t = {
  m : int;  (* centers *)
  dim : int;
  centers : buffer;  (* m*dim, row-major: center j at [j*dim, dim) *)
  inv_radii : buffer;  (* m*dim: 1/r, precomputed at pack time *)
  weights : buffer;  (* m *)
  (* scratch for [eval_points], grown geometrically and reused across
     calls so steady-state batches allocate nothing but the result
     array.  This makes the convenience path single-domain, like every
     other mutable handle in the pipeline; [eval_into] with
     caller-owned buffers remains re-entrant. *)
  mutable scratch_q : buffer;
  mutable scratch_out : buffer;
}

(* The dimensions pass as three separate immediates: a [(m, dim, n)]
   tuple would be boxed on every call, the one allocation left in the
   [eval_into] hot path. *)
external eval_stub :
  buffer ->
  buffer ->
  buffer ->
  int ->
  int ->
  int ->
  buffer ->
  buffer ->
  buffer ->
  buffer ->
  int ->
  unit = "archpred_rbf_eval_batch_bytecode" "archpred_rbf_eval_batch"
[@@noalloc]

external simd_level_stub : unit -> int = "archpred_rbf_simd_level"

let simd_level () =
  match simd_level_stub () with 2 -> "avx512" | 1 -> "avx2" | _ -> "scalar"

let n_centers t = t.m
let dim t = t.dim
let create_buffer n = Array1.create float64 c_layout (max n 1)

let pack ~dim ~centers ~radii ~weights =
  let m = Array.length centers in
  if m = 0 then invalid_arg "Batch_kernel.pack: no centers";
  if dim <= 0 then invalid_arg "Batch_kernel.pack: non-positive dimension";
  if Array.length radii <> m || Array.length weights <> m then
    invalid_arg "Batch_kernel.pack: centers/radii/weights length mismatch";
  Array.iter
    (fun c ->
      if Array.length c <> dim then
        invalid_arg "Batch_kernel.pack: center arity mismatch")
    centers;
  Array.iter
    (fun r ->
      if Array.length r <> dim then
        invalid_arg "Batch_kernel.pack: radius arity mismatch";
      Array.iter
        (fun radius ->
          if not (radius > 0.) then
            invalid_arg "Batch_kernel.pack: non-positive radius")
        r)
    radii;
  let cb = Array1.create float64 c_layout (m * dim) in
  let irb = Array1.create float64 c_layout (m * dim) in
  let wb = Array1.create float64 c_layout m in
  for j = 0 to m - 1 do
    let cj = centers.(j) and rj = radii.(j) in
    for k = 0 to dim - 1 do
      Array1.unsafe_set cb ((j * dim) + k) (Array.unsafe_get cj k);
      (* 1/r here must stay bitwise equal to the 1. /. r.(k) the scalar
         reference computes per call: same operands, same op. *)
      Array1.unsafe_set irb ((j * dim) + k) (1. /. Array.unsafe_get rj k)
    done;
    Array1.unsafe_set wb j (Array.unsafe_get weights j)
  done;
  {
    m;
    dim;
    centers = cb;
    inv_radii = irb;
    weights = wb;
    scratch_q = Array1.create float64 c_layout 1;
    scratch_out = Array1.create float64 c_layout 1;
  }

(* The [buffer] annotations below are load-bearing: without them the
   bigarray kind stays polymorphic inside this unit (the .mli only
   constrains the boundary), and [Array1.unsafe_set] falls back to the
   generic accessor — a C call per element, ~8x slower than the
   monomorphic float64 store. *)
let set_query t (queries : buffer) i point =
  if Array.length point <> t.dim then
    invalid_arg "Batch_kernel.set_query: point arity mismatch";
  if i < 0 || ((i + 1) * t.dim) > Array1.dim queries then
    invalid_arg "Batch_kernel.set_query: row out of bounds";
  for k = 0 to t.dim - 1 do
    Array1.unsafe_set queries ((i * t.dim) + k) (Array.unsafe_get point k)
  done

(* One fused marshalling loop for a whole batch: per-point [set_query]
   calls cost several times the copy itself (call + revalidation per
   row), which at small center counts rivals the kernel.  Validation
   runs as its own pass before the copy loop: a raise-capable call
   inside the copy loop stops the compiler keeping the bigarray data
   pointer in a register, which measures ~8x slower than the split
   form. *)
let load_queries t (queries : buffer) points =
  let dim = t.dim in
  let n = Array.length points in
  if n * dim > Array1.dim queries then
    invalid_arg "Batch_kernel.load_queries: query buffer too small";
  for i = 0 to n - 1 do
    if Array.length (Array.unsafe_get points i) <> dim then
      invalid_arg "Batch_kernel.set_query: point arity mismatch"
  done;
  for i = 0 to n - 1 do
    let p = Array.unsafe_get points i in
    let base = i * dim in
    for k = 0 to dim - 1 do
      Array1.unsafe_set queries (base + k) (Array.unsafe_get p k)
    done
  done

let eval_into ?(force_scalar = false) t ~queries ~n ~out =
  if n < 0 then invalid_arg "Batch_kernel.eval_into: negative batch";
  if n * t.dim > Array1.dim queries then
    invalid_arg "Batch_kernel.eval_into: query buffer too small";
  if n > Array1.dim out then
    invalid_arg "Batch_kernel.eval_into: output buffer too small";
  if n > 0 then
    eval_stub t.centers t.inv_radii t.weights t.m t.dim n queries out
      Rbf_math.t2j Rbf_math.pow2
      (if force_scalar then 0 else 1)

(* Re-entrant variant: fresh buffers instead of [t]'s scratch, so
   concurrent domains can evaluate against one packed model.  The extra
   allocations are the price of that freedom — single-domain callers
   should stay on [eval_points]. *)
let eval_points_fresh ?force_scalar t points =
  let n = Array.length points in
  if n = 0 then [||]
  else begin
    let queries = create_buffer (n * t.dim) in
    let out = create_buffer n in
    load_queries t queries points;
    eval_into ?force_scalar t ~queries ~n ~out;
    Array.init n (fun i -> Array1.unsafe_get out i)
  end

let eval_points ?force_scalar t points =
  let n = Array.length points in
  if n = 0 then [||]
  else begin
    if Array1.dim t.scratch_q < n * t.dim then
      t.scratch_q <- Array1.create float64 c_layout (2 * n * t.dim);
    if Array1.dim t.scratch_out < n then
      t.scratch_out <- Array1.create float64 c_layout (2 * n);
    load_queries t t.scratch_q points;
    eval_into ?force_scalar t ~queries:t.scratch_q ~n ~out:t.scratch_out;
    let out = t.scratch_out in
    Array.init n (fun i -> Array1.unsafe_get out i)
  end
