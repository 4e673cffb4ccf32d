(** Random variate generation for the distributions used by the synthetic
    workload generator.

    The trace generator models dependency distances as geometric, memory
    reuse distances as Zipf-like, and the instruction mix as a categorical
    draw; these choices follow standard workload-characterisation practice
    and are what lets the synthetic SPEC stand-ins stress the same microarchitectural
    structures as the originals. *)

val geometric : Rng.t -> p:float -> int
(** Geometric number of failures before the first success, support
    [{0, 1, ...}]; mean [(1 - p) / p]. Requires [0. < p <= 1.]. *)

val zipf : Rng.t -> n:int -> s:float -> int
(** Zipf-distributed rank in [\[0, n)] with exponent [s] (larger [s] means
    more skew toward low ranks), sampled by inversion over a precomputed
    table-free approximation (rejection method of Devroye). Requires
    [n > 0] and [s >= 0.]. *)

val categorical : Rng.t -> float array -> int
(** [categorical rng weights] draws index [i] with probability proportional
    to [weights.(i)]. Requires nonnegative weights with a positive sum. *)

type 'a alias_table
(** Preprocessed table for O(1) categorical sampling (Walker's alias
    method); used on the hot path of trace generation. *)

val alias_of_weighted : ('a * float) array -> 'a alias_table
(** Build an alias table from value/weight pairs. *)

val alias_draw : Rng.t -> 'a alias_table -> 'a
(** Constant-time draw from the table. *)
