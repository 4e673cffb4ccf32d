(** Sobol low-discrepancy sequences (up to 10 dimensions).

    A quasi-random alternative to latin hypercube sampling for the
    sampling-strategy ablation: Sobol points minimise star discrepancy by
    construction, which makes them the natural yardstick for the paper's
    best-of-N LHS heuristic.  Direction numbers follow Joe and Kuo's
    primitive-polynomial tables for the first ten dimensions; generation
    uses the Gray-code ordering of Antonov and Saleev. *)

val points : ?skip:int -> dim:int -> n:int -> unit -> float array array
(** [points ~dim ~n ()] is the first [n] Sobol points in [\[0,1)^dim],
    after discarding [skip] (default 1, dropping the all-zeros origin
    point).  Raises [Invalid_argument] for [dim] outside
    [1..max_dimension] or [n <= 0]. *)

val sample : Space.t -> n:int -> Space.point array
(** Sobol points shaped for a design space (arity = space dimension).
    Raises [Invalid_argument] if the space has more than
    {!max_dimension} dimensions. *)
