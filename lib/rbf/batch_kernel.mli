(** Zero-allocation batched RBF evaluation.

    A packed model holds its centers, reciprocal radii and weights in
    contiguous C-layout bigarrays (struct-of-arrays), built once at
    model construction or load.  {!eval_into} then evaluates a batch of
    query points against every center in a single C pass — vectorised
    across points with AVX-512 or AVX2, at {!Archpred_simd.Simd.level} —
    without allocating per point.

    Every path is bit-identical to the scalar reference
    {!Network.eval}: the kernel replays the reference's exact IEEE-754
    operation sequence per point (see rbf_kernel_stubs.c), so batching,
    SIMD width and instruction-set dispatch never change results. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val pack :
  dim:int ->
  centers:float array array ->
  radii:float array array ->
  weights:float array ->
  t
(** Pack a model into contiguous storage.  Raises [Invalid_argument] on
    empty models, arity mismatches or non-positive radii. *)

val eval_points : t -> float array array -> float array
(** Convenience wrapper: marshal [points] into an internal scratch
    buffer (reused across calls, grown on demand), evaluate, and return
    the responses in order.  Because of the shared scratch, this entry
    point must not be called concurrently from several domains on the
    same [t]; {!eval_into} with caller-owned buffers is re-entrant. *)
