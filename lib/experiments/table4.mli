(** Table 4 — diagnostics of the RBF model for mcf across sample sizes:
    the tuned method parameters (p_min, alpha) and the number of selected
    RBF centers.  The paper's claims: best p_min is typically 1, alpha
    lands in 5–12, and the center count stays well below half the sample
    size. *)

val run : Context.t -> Format.formatter -> unit
