(** Method-parameter tuning (section 2.6 of the paper).

    The regression-tree/RBF construction has two method parameters: the
    leaf size [p_min] and the radius scale [alpha] (eq. 8).  "We determined
    optimal p_min and alpha for each benchmark by choosing the values which
    resulted in the lowest AICc."  This module grid-searches both. *)

type result = {
  p_min : int;
  alpha : float;
  criterion : float;  (** best criterion value found *)
  tree : Archpred_regtree.Tree.t;
  selection : Archpred_rbf.Selection.result;
}

val cells : Config.t -> (int * float) array
(** The tuning grid in canonical cell order: [p_min] outer, [alpha] inner
    — the serial iteration order.  The arg-min over cells keeps the
    earliest cell on ties, so every consumer of the grid (this module's
    walk and the pipeline's tune stage) must enumerate cells in exactly
    this order to reproduce the same winner.  Raises
    [Archpred (Invalid_input _)] on an empty grid. *)

val eval_cell :
  ?obs:Archpred_obs.t ->
  criterion:Archpred_rbf.Criteria.t ->
  tree:Archpred_regtree.Tree.t ->
  points:float array array ->
  responses:float array ->
  alpha:float ->
  unit ->
  Archpred_rbf.Selection.result
(** Evaluate one grid cell against a tree already built for its [p_min]:
    derive the candidate centers at [alpha] and run the tree-ordered
    selection.  Deterministic in its inputs, which is what makes a grid
    walked in pieces — by {!evaluate} over any subset of cells —
    bit-identical to the whole. *)

val evaluate :
  config:Config.t ->
  dim:int ->
  points:float array array ->
  responses:float array ->
  (int * float) array ->
  result array
(** Fit each of the given cells: one regression tree per distinct
    [p_min], built in parallel and shared by every cell of its [p_min],
    then {!eval_cell} per cell, fanned over [config.domains].  The
    results are identical for every domain count.  Records the
    ["build.tune"] span and counts the cells in ["tune.cells"]. *)

val tune :
  ?config:Config.t ->
  dim:int ->
  points:float array array ->
  responses:float array ->
  unit ->
  result
(** Fit the whole [p_min] x [alpha] grid of [config] (default
    {!Config.default}) with {!evaluate} and return the combination
    minimising the criterion, the earliest cell on ties.  Raises
    [Archpred (Invalid_input _)] on an empty grid. *)
