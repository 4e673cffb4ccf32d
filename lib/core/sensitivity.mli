(** Model-driven parameter-significance analysis.

    The authors' companion work (Joseph et al., HPCA 2006 — reference [10])
    estimates the significance of microarchitectural parameters from
    fitted models; this module provides the same analysis on top of a
    trained RBF predictor, with no further simulation:

    - {!main_effects}: for each parameter, the predicted response range
      along an axis sweep through the center of the space (a one-at-a-time
      effect size);
    - {!total_effects}: a sampling-based total-effect estimate — how much
      of the response's variance is tied to each parameter, interactions
      included (a Sobol-style "freeze one dimension" contrast);
    - {!top_interactions}: the predicted interaction strength of each
      parameter pair, measured as the non-additivity of a 2x2 corner
      contrast. *)

type effect = {
  name : string;
  dim : int;
  magnitude : float;  (** effect size, in response units *)
}

val main_effects : ?steps:int -> Predictor.t -> effect list
(** One-at-a-time response ranges, largest first.  [steps] (default 9)
    grid points per axis sweep. *)

val total_effects :
  ?samples:int ->
  rng:Archpred_stats.Rng.t ->
  Predictor.t ->
  effect list
(** Variance-based total effects, largest first: for each dimension, the
    mean squared response change when only that coordinate is resampled,
    over [samples] (default 512) random base points. *)

val top_interactions : ?count:int -> Predictor.t -> (string * string * float) list
(** All parameter pairs ranked by interaction strength, strongest first,
    truncated to [count] (default 10).  The strength of a pair is
    [|f(hi,hi) - f(hi,lo) - f(lo,hi) + f(lo,lo)|] with other coordinates
    centered — zero for an additive (no-interaction) response. *)
