(** A trained performance predictor.

    Wraps a fitted RBF network together with the design space it was
    trained over, so callers can predict from natural parameter values
    as well as normalised points.  Every predictor also carries the
    network packed into struct-of-arrays storage ({!Archpred_rbf.Network.packed},
    built by {!make}), which backs the batched prediction API. *)

type t = {
  space : Archpred_design.Space.t;
  network : Archpred_rbf.Network.t;
  packed : Archpred_rbf.Network.packed;
      (** contiguous storage for {!predict_batch}; derived from
          [network] by {!make} — construct predictors through {!make}
          so the two can never disagree *)
  tree : Archpred_regtree.Tree.t option;
      (** the regression tree behind the centers, kept for split analyses;
          [None] for models loaded from disk ({!Persist}) *)
  p_min : int;
  alpha : float;
}

val make :
  space:Archpred_design.Space.t ->
  network:Archpred_rbf.Network.t ->
  ?tree:Archpred_regtree.Tree.t ->
  p_min:int ->
  alpha:float ->
  unit ->
  t
(** The constructor: packs [network] at build/load time. *)

val predict : t -> Archpred_design.Space.point -> float
(** Predicted response (CPI) at a normalised design point.  The scalar
    reference path; {!predict_batch} is bit-identical to it. *)

val predict_natural : t -> float array -> float
(** Predict from natural parameter values (encoded through the space). *)

val predict_batch :
  ?obs:Archpred_obs.t ->
  ?cache:Memo.t ->
  t ->
  Archpred_design.Space.point array ->
  float array
(** Predict a batch of points through the packed kernel — one
    vectorised pass, no allocation per point.  With [cache], on-grid
    points are served from / inserted into the LRU memo ({!Memo});
    results are bit-identical to {!predict} either way.  [obs] counts
    [predict.batches] and [predict.points]. *)

val n_centers : t -> int

val errors_on :
  t ->
  points:Archpred_design.Space.point array ->
  actual:float array ->
  Archpred_stats.Error_metrics.t
(** Prediction-error metrics against reference responses — the mean /
    std / max percentage errors the paper reports.  Predictions run
    through {!predict_batch}. *)
