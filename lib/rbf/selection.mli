(** Tree-ordered RBF center subset selection (section 2.5 of the paper,
    after Orr et al. 2000).

    The candidate centers are the regression-tree nodes.  Selection starts
    at the root: the root's center is taken, then for each internal node
    the algorithm considers the eight include/exclude combinations of the
    node and its two children (holding the rest of the selection fixed),
    adopts the combination with the lowest model-selection criterion, and
    descends into the children.  The criterion (AICc by default) balances
    fit quality against the number of centers, so the walk stops adding
    centers when extra ones stop paying for themselves. *)

type result = {
  network : Network.t;  (** weights fitted on the training sample *)
  selected_node_ids : int list;  (** tree nodes whose centers were kept *)
  criterion : float;  (** criterion value of the selected model *)
  sigma2 : float;  (** training error variance of the selected model *)
}

val evaluate_subset :
  criterion:Criteria.t ->
  design:Archpred_linalg.Matrix.t ->
  responses:float array ->
  int list ->
  float
(** Criterion score of an explicit candidate subset (columns of the full
    design matrix); [infinity] for the empty set or degenerate fits.
    The full-QR reference score that tests hold selection to. *)

val select :
  ?obs:Archpred_obs.t ->
  ?criterion:Criteria.t ->
  tree:Archpred_regtree.Tree.t ->
  candidates:Tree_centers.candidate array ->
  points:float array array ->
  responses:float array ->
  unit ->
  result
(** Run the tree-ordered selection and fit the final network.  Records the
    ["rbf.select"] span plus ["rbf.centers_tried"] (combination scorings),
    ["rbf.centers_kept"], and ["ils.pushes"]/["ils.pops"] (Cholesky factor
    work) counters on [obs].  Raises [Invalid_argument] on dimension
    mismatches. *)

val select_forward :
  ?obs:Archpred_obs.t ->
  ?criterion:Criteria.t ->
  ?max_centers:int ->
  candidates:Tree_centers.candidate array ->
  points:float array array ->
  responses:float array ->
  unit ->
  result
(** Classic greedy forward selection, ignoring the tree structure: start
    empty and repeatedly add the candidate whose inclusion most lowers the
    criterion, until no addition improves it (or [max_centers], default
    [p/2], is reached).  Considerably more expensive than {!select} — it
    scores every unused candidate at every step — and used by the
    center-selection ablation as the no-tree-ordering comparison point. *)
