(** L2 discrepancies: space-filling quality of a sample.

    A discrepancy measures how far a point set deviates from the uniform
    distribution over the unit cube; lower is better.  The paper selects,
    among many candidate latin hypercube samples, the one with the lowest
    "L2-star discrepancy ... analytically derived in Hickernell" (section
    2.2, Figure 2).  Both closed forms below are exact O(d n^2) formulas:

    - {!l2_star}: the classical star discrepancy in the L2 norm
      (Warnock's formula);
    - [Centered]: Hickernell's centered L2 discrepancy, which is
      invariant under reflections [u -> 1 - u] of any coordinate.

    The pairwise kernels are symmetric in (i, j), so only the diagonal and
    the strict upper triangle are summed — half the naive double loop —
    and the triangle rows are spread over the domain pool.  Per-row
    partial sums are folded in row order, so every domain count produces
    the same bits.

    Each row sum is a C kernel with the pairs of the row in SIMD lanes
    (AVX2 or portable C, at {!Archpred_simd.Simd.training}).  Every pair
    keeps the operation order of the plain loop, so both paths return
    the same bits. *)

val l2_star : ?domains:int -> Space.point array -> float
(** Warnock's L2-star discrepancy of a sample in the unit cube.
    Raises [Invalid_argument] on an empty sample. *)

type kind = Star | Centered  (** {!l2_star} | Hickernell's centered L2 *)

val compute : ?domains:int -> kind -> Space.point array -> float
