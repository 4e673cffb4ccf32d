(** Regression trees over the unit hypercube (section 2.4 of the paper).

    The tree recursively bifurcates the sample along one input dimension
    [k] at a boundary [b], choosing [(k, b)] to minimise the residual
    square error

    {v E(k,b) = (1/p) * (sum_{i in S_L} (y_i - mean_L)^2
                        + sum_{i in S_R} (y_i - mean_R)^2) v}

    (eq. 7), and stops splitting a node once it holds at most [p_min]
    points.  Nodes are expanded best-first (largest within-node SSE first),
    so the creation order ranks splits by significance — "the parameters
    which cause the most output variation tend to be split earliest"; that
    ordering is what Table 5 and Figure 5 of the paper report.

    Every node carries the hyper-rectangle of design space it covers;
    node centers and sizes seed the RBF network (section 2.5). *)

type node = {
  id : int;  (** creation order; the root is 0 *)
  depth : int;  (** root depth is 1, as in Table 5 *)
  lo : float array;  (** lower corner of the node's hyper-rectangle *)
  hi : float array;  (** upper corner *)
  indices : int array;  (** sample points inside this region *)
  mean : float;  (** mean response of those points *)
  sse : float;  (** within-node sum of squared deviations *)
  mutable split : split option;
}

and split = {
  dim : int;  (** parameter index [k] of the bifurcation *)
  threshold : float;  (** boundary [b], in normalised coordinates *)
  order : int;  (** 1-based significance rank (creation order) *)
  sse_reduction : float;  (** SSE(parent) - SSE(left) - SSE(right) *)
  left : node;
  right : node;
}

type t

val build :
  ?obs:Archpred_obs.t ->
  ?p_min:int ->
  dim:int ->
  points:float array array ->
  responses:float array ->
  unit ->
  t
(** [build ~dim ~points ~responses ()] grows a tree on sample points in
    [\[0,1\]^dim].  [p_min] (default 1) is the method parameter of section
    2.4: leaves with at most [p_min] points are not split.  Records the
    ["tree.build"] span and ["tree.nodes"] counter on [obs].  Raises
    [Invalid_argument] on empty input, mismatched lengths, or points of the
    wrong arity. *)

val root : t -> node
val node_count : t -> int

val nodes : t -> node list
(** All nodes in creation (significance) order: the root first. *)

val leaves : t -> node list

val predict : t -> float array -> float
(** Mean response of the leaf whose region contains the point (points on a
    boundary go left, matching [x_k <= b]). *)

val splits : t -> split list
(** All splits in significance order — the data behind Table 5 and
    Figure 5. *)

val center : node -> float array
(** Center of the node's hyper-rectangle. *)

val size : node -> float array
(** Edge lengths of the node's hyper-rectangle. *)

val region_disjoint_cover : t -> bool
(** Invariant check used by tests: at every internal node the children's
    index sets partition the parent's. *)
