(** Incremental least squares over subsets of a fixed design matrix.

    Greedy model selection (RBF center selection, stepwise regression)
    scores thousands of column subsets that differ by one to three
    columns.  Fitting each subset from scratch costs O(p m^2) by QR, or
    O(m^3) by a fresh Cholesky of the normal equations.  This module
    precomputes the Gram moments [G = H'H], [H'y] and [y'y] once and then
    maintains a Cholesky factor L of the active submatrix *incrementally*:

    - {!push} appends a column — one forward substitution, O(m^2);
    - {!pop} drops the most recently pushed column — exact truncation of
      the lower-triangular factor, O(1);
    - scoring reads [RSS = y'y - ||z||^2] where [z = L^-1 (H'y)_S] is kept
      in step with L, O(m) per query.

    A candidate step (push, score, pop) is therefore O(m^2) instead of the
    O(m^3) full refactorisation — the difference between 50 ms and a few
    ms per selection pass on the paper's sample sizes. *)

type t
(** Precomputed moments of a p-by-M design matrix and response vector. *)

val k_block : int
(** Rows per call of a {!create} producer: 48. *)

val create :
  ?jitter:float ->
  n_cols:int ->
  rows:(int -> int -> float array) ->
  responses:float array ->
  unit ->
  t
(** Precompute [H'H], [H'y] and [y'y] of the p-by-[n_cols] design [H],
    p = [Array.length responses], without holding [H] whole.  [rows k0
    k1] gives design rows [\[k0, k1)]: entry [(k, j)] at [(k - k0) *
    n_cols + j].  [create] asks for the rows once each, in ascending
    blocks of at most {!k_block}, and is done with a block before it
    asks for the next, so the producer may hand back one buffer every
    time.  The Gram is held as its packed upper triangle, [n_cols *
    (n_cols + 1) / 2] floats, and each block goes straight into it
    through a C kernel with columns in SIMD lanes (AVX2 or portable C,
    at {!Archpred_simd.Simd.training}); every entry is its
    ascending-row sum from +0 on both paths, so they agree bit for bit
    with the plain triple loop over [H].  [jitter] (default 0) is added to the Gram
    diagonal as each column is pushed, keeping the factor defined when
    columns nearly coincide.  Raises [Invalid_argument] on a negative
    [n_cols] or jitter, or a block shorter than its rows. *)

val matrix_rows : Matrix.t -> int -> int -> float array
(** [matrix_rows h] is a {!create} producer over an existing design: each
    call copies the rows asked for into one buffer of {!k_block} rows. *)

val p : t -> int
(** Number of rows (observations) of the design. *)

val n_cols : t -> int
(** Number of columns (candidate regressors) of the design. *)

val yty : t -> float
(** [y'y], the response sum of squares. *)

val gram : t -> int -> int -> float
(** [gram t a b] is entry [(a, b)] of [H'H], equal to [gram t b a]. *)

val hy : t -> int -> float
(** [hy t a] is entry [a] of [H'y]. *)

type factor
(** A mutable Cholesky factor of the normal equations restricted to an
    ordered subset of columns.  Not safe for concurrent use; create one
    per domain. *)

val factor : t -> factor
(** A fresh, empty factor with room for every column.  Its rows are
    allocated as it grows, so a factor that holds few of many columns
    stays small. *)

val size : factor -> int
(** Number of active columns. *)

val ids : factor -> int array
(** Active columns, in push order. *)

val pushes : factor -> int
(** Lifetime count of {!push} attempts (accepted or rejected — either way
    the forward substitution was paid).  Callers report these to the
    observability layer; this module stays free of that dependency. *)

val pops : factor -> int
(** Lifetime count of rows discarded: by {!pop} or {!set}, and rejected
    {!push} attempts.  [pushes f - pops f = size f] always. *)

val push : factor -> int -> bool
(** [push f j] appends column [j].  Returns [false] — leaving the factor
    unchanged — if the updated matrix is not positive definite (the column
    is numerically dependent on the active set).  Raises
    [Invalid_argument] if [j] is out of range or the factor is full. *)

val pop : factor -> unit
(** Drop the most recently pushed column.  Raises [Invalid_argument] on an
    empty factor. *)

val set : factor -> int list -> bool
(** [set f cols] leaves the factor holding [cols], in order, exactly as
    a fresh factor given {!push} of each column would, bit for bit.  It
    keeps the longest prefix of the live factor that [cols] starts with,
    drops the rest, and pushes only the remaining columns.  On any push
    failure the factor is emptied and the result is [false]. *)

val explained : factor -> float
(** [||z||^2 = w' (H'y)_S], the explained sum of squares. *)

val rss : factor -> float
(** Residual sum of squares of the active set, clamped at 0. *)

val sigma2 : factor -> float option
(** Maximum-likelihood error variance [RSS / p]; [None] for the empty set
    or when [size >= p] (the criterion formulas reject those anyway). *)

val solve : factor -> float array
(** Least-squares coefficients of the active set; entry [k] pairs with
    [(ids f).(k)]. *)
