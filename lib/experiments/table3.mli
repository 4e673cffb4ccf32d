(** Table 3 — error diagnostics of the predictive model: mean, maximum and
    standard deviation of the absolute percentage CPI error over the random
    test set, per benchmark, at the full table sample size (200 in the
    paper).  The paper's values are printed alongside for comparison. *)

val run : Context.t -> Format.formatter -> unit
