(** Plackett–Burman two-level screening designs.

    Implemented as a related-work baseline: Yi et al. (HPCA 2005, cited in
    section 5) rank microarchitectural parameters with foldover
    Plackett–Burman designs.  A PB design of [n] runs estimates up to
    [n - 1] main effects; its foldover doubles the runs and frees the main
    effects from confounding with two-factor interactions.  The paper
    argues such designs cannot quantify the interactions that matter — the
    sampling ablation bench makes that comparison concrete. *)

val design : runs:int -> int array array
(** [design ~runs] is the cyclic Plackett–Burman matrix with entries [+1] /
    [-1], of shape [runs x (runs - 1)].  Supported sizes: 8, 12, 16, 20,
    24.  Raises [Invalid_argument] otherwise. *)

val foldover : int array array -> int array array
(** Append the sign-reversed runs, doubling the design. *)

val main_effects :
  int array array -> float array -> int -> float array
(** [main_effects design responses d] estimates the first [d] main effects
    as the mean response difference between the [+1] and [-1] settings of
    each column. *)
