(** Correlation measures between paired samples.

    Used in model diagnostics: a good predictive model should have its
    predictions strongly rank-correlated with simulated CPI even where the
    absolute error is nonzero, because architects use the model to *order*
    candidate designs. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation: Pearson correlation of the ranks, with ties
    assigned their average rank. Raises [Invalid_argument] if the arrays
    differ in length or have fewer than two elements. Returns [0.] if
    either sample is constant. *)
