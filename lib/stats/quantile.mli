(** Empirical quantiles and medians.

    Used by the experiment harness to summarise distributions of tree-split
    values (Figure 5) and of prediction errors. *)

val quantiles : float array -> float list -> float list
(** [quantiles xs qs] is the [q]-quantile of [xs] for each [q] of [qs], in
    [\[0, 1\]], using linear interpolation between order statistics
    (type-7, the R default), from one sort.  The input array is not
    modified.  Raises [Invalid_argument] if [xs] is empty or a [q] is
    outside [\[0, 1\]]. *)
