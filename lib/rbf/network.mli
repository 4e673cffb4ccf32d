(** Radial basis function networks (section 2.3 of the paper).

    The network computes [f(x) = sum_j w_j h_j(x)] (eq. 1) with Gaussian
    basis functions

    {v h(x) = exp(- sum_k (x_k - c_k)^2 / r_k^2) v}

    (eq. 2), each characterised by a center [c] and a per-dimension radius
    vector [r].  Given fixed centers, the weights are linear parameters,
    fitted by least squares on the training sample. *)

type center = {
  c : float array;  (** position in normalised design space *)
  r : float array;  (** per-dimension radii; all must be positive *)
}

val basis : center -> float array -> float
(** [basis ctr x] is the Gaussian response of eq. 2. Raises
    [Invalid_argument] on arity mismatch. *)

type t = {
  centers : center array;
  weights : float array;
}

val eval : t -> float array -> float
(** Network response at a point (eq. 1).  This scalar path is the
    reference implementation ("the oracle"): {!eval_batch} is defined
    to be bit-identical to it, and tests enforce that. *)

type packed = Batch_kernel.t
(** A network packed into contiguous struct-of-arrays storage
    ({!Batch_kernel.t}): centers, reciprocal radii and weights in
    C-layout bigarrays, built once per model. *)

val pack : t -> packed
(** Pack a fitted network for batched evaluation.  Raises
    [Invalid_argument] on an empty network or invalid radii. *)

val eval_batch : packed -> float array array -> float array
(** Evaluate a batch of points in one vectorised, zero-allocation-per-
    point C pass.  Bit-identical to mapping {!eval} over the batch, at
    any batch size, at every {!Archpred_simd.Simd.level}. *)

val design_matrix : center array -> float array array -> Archpred_linalg.Matrix.t
(** [design_matrix centers points] is the p-by-m matrix [H] with
    [H(i)(j) = basis centers.(j) points.(i)] bit for bit, from an AVX2
    kernel where {!Archpred_simd.Simd.training} is [Avx2] and the
    dimension is at most 64, else from [basis] itself.  Raises [Invalid_argument] on an arity
    mismatch. *)

val design_rows :
  center array -> float array array -> int -> int -> float array
(** [design_rows centers points] is an
    {!Archpred_linalg.Incremental_ls.create} producer over
    [design_matrix centers points] that never holds the matrix whole:
    the centers and their [1/r] are packed once, and [rows k0 k1]
    evaluates rows [\[k0, k1)] (at most
    {!Archpred_linalg.Incremental_ls.k_block}) into one buffer that the
    next call overwrites, with the same bits as {!design_matrix}.  Raises
    [Invalid_argument] on an arity mismatch or a bad row range. *)

type fit_diagnostics = {
  rss : float;
  sigma2 : float;  (** maximum-likelihood error variance, [rss / p] *)
  regularized : bool;
}

val fit :
  ?ridge:float ->
  centers:center array ->
  points:float array array ->
  responses:float array ->
  unit ->
  t * fit_diagnostics
(** Least-squares weight fit with a small ridge penalty ([ridge], default
    [1e-8]; pass [0.] for a plain fit).  The ridge keeps weights bounded
    when tree-derived centers nearly coincide, and mirrors the jitter used
    by the selection scorer.  Raises [Invalid_argument] when [centers] is
    empty or dimensions disagree. *)

val check_center : center -> unit
(** Raise [Invalid_argument] if any radius is not strictly positive. *)
