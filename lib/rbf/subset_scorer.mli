(** Fast scoring of candidate center subsets.

    The tree-ordered selection evaluates thousands of subsets that differ
    by one to three columns.  Refitting each by QR costs O(p m^2) per
    subset; instead this scorer precomputes the Gram matrix [G = H'H], the
    moment vector [H'y] and [y'y] once
    (see {!Archpred_linalg.Incremental_ls}), after which any subset's
    residual sum of squares follows from an m-by-m Cholesky solve — and
    subsets reached by pushing/popping columns on a shared {!factor} cost
    only O(m^2) per step.

    A tiny jitter on the Gram diagonal keeps the solve defined when two
    candidate centers (nearly) coincide. *)

type t

val create : design:Archpred_linalg.Matrix.t -> responses:float array -> t
(** Precompute moments of the full p-by-M design matrix. *)

val incremental : t -> Archpred_linalg.Incremental_ls.t
(** The underlying moments, for callers that walk subsets incrementally
    (create one factor per domain from this). *)

val add_row : t -> row:float array -> y:float -> unit
(** Stream one new observation — a design-matrix row (the kernel value of
    every candidate center at the new point) and its response — into the
    precomputed moments ({!Archpred_linalg.Incremental_ls.add_row}).
    Factors built on {!incremental} are stale after this call:
    [Incremental_ls.set] rebuilds them, while a factor driven by
    push/pop alone must be re-[set] before scoring. *)

val score_factor :
  t -> Archpred_linalg.Incremental_ls.factor -> criterion:Criteria.t -> float
(** Criterion value of a factor's active subset; [infinity] for the empty
    set or [m >= p]. *)

val sigma2 : t -> int list -> float option
(** Maximum-likelihood error variance [RSS / p] of the least-squares fit
    restricted to the given candidate columns; [None] for the empty subset,
    for subsets with [m >= p], or if the (jittered) normal equations are
    still singular. *)

val score : t -> criterion:Criteria.t -> int list -> float
(** Criterion value of a subset; [infinity] where {!sigma2} is [None]. *)
