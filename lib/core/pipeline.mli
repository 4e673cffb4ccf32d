(** BuildRBFmodel as a sequence of stages over a store of stage values.

    The paper's procedure — sample, simulate, tune (p_min, alpha),
    select, fit, and repeat at larger sizes until the model is accurate
    enough — is cut into indexed stages.  Each stage maps a range of
    indices to floats, as a pure function of the pipeline's inputs and
    of the values of earlier stages:

    - ["test"]: the held-out test points' responses;
    - ["lhs.<k>"]: the L2-star discrepancy of each latin hypercube
      candidate of size step [k];
    - ["sim.<k>"]: the responses of step [k]'s design points;
    - ["tune.<k>"]: the criterion of each (p_min, alpha) cell
      ({!Tune.cells} order) fitted to step [k]'s sample.

    Every control decision — the LHS winner, the tuning winner, the
    early stop — is an arg-min over stage values (strict [<], earliest
    index on ties), so any process that reads the same values reaches
    the same decisions.  Earlier stages are read through a plain
    function ({!read}).  [Build] provides it from an in-memory table,
    and a run directory from its merged journals. Either way the
    assembled model is bit-identical, whatever the unit order,
    domain count or worker count.

    In nested mode ([config.nested] with an accuracy schedule) there is
    one ["lhs.0"] campaign at the largest size, each ["sim.<k>"] covers
    only the rows new at step [k], and ["tune.<k>"] fits the grid from
    scratch to the first [sizes.(k)] rows of that one sample. *)

type trained = {
  predictor : Predictor.t;
  sample : Archpred_design.Space.point array;
  sample_responses : float array;
  discrepancy : float;  (** L2-star discrepancy of the chosen sample *)
  criterion : float;  (** criterion of the selected model *)
  tune : Tune.result;
}

type step = {
  size : int;
  trained : trained;
  test_error : Archpred_stats.Error_metrics.t;
}

type schedule =
  | Train  (** one model of [config.sample_size] points *)
  | Accuracy of { sizes : int list; target_mean_pct : float }
      (** grow through [sizes] (ascending, duplicates dropped) until the
          mean test error is at most [target_mean_pct] percent *)

type t
(** One run's inputs and the values derived from them.  Not
    thread-safe: one per process, driven from one domain (each stage
    fans its own range out over [config.domains]). *)

val create :
  config:Config.t ->
  space:Archpred_design.Space.t ->
  response:Response.t ->
  rng:Archpred_stats.Rng.t ->
  schedule:schedule ->
  test_points:Archpred_design.Space.point array ->
  t
(** Validate [config] and [schedule].  The LHS candidates are split
    from [rng] as the steps are reached: [config.lhs_candidates]
    splits per redraw step, as {!Archpred_design.Optimize.best_lhs}
    draws them.  Raises [Archpred (Invalid_input _)] on an invalid
    configuration or an empty size schedule. *)

val unit_size : t -> int
(** [config.sim_batch]: the indices of one unit of work. *)

val domains : t -> int
(** [config.domains], or the library default. *)

val test_points : t -> Archpred_design.Space.point array

(** {2 Stages} *)

type read = stage:string -> count:int -> float array
(** All [count] values of a completed stage, in index order. *)

type stage = {
  name : string;
  count : int;  (** indices in the stage *)
  compute : read -> lo:int -> hi:int -> float array;
      (** the values at indices [lo..hi-1]; reads only completed earlier
          stages, and gives the same bits for any range split *)
}

val test_stage_name : string
(** ["test"]. *)

val walk : t -> read:read -> (stage -> unit) -> unit
(** Hand each stage to the driver in order — test (when there are test
    points), then per step LHS, sim and tune — and stop after the step
    where the schedule ends.  The driver must have completed a stage in
    [read] when it returns.

    Simulation ([test], [sim.<k>]) goes through {!Response.evaluate_many}
    when the response is batched and [config.sim_batch > 1] (fault site
    ["sim.batch"] per range).  Otherwise each point is a task of
    {!Archpred_stats.Parallel.map_fallible} with [config.task_retries]
    retries (fault site ["sim.task"]);
    points that keep failing end the stage as one
    [Archpred (Infeasible _)], and the ["pool.retries"] and
    ["pool.failed_tasks"] counters record the range's retries and
    failures.  Stage spans: ["design.best_lhs"], ["build.simulate"] and
    ["build.tune"]. *)

val test_actuals : t -> read -> float array
(** The ["test"] stage's values. *)

type outcome = {
  final : trained;
  steps : step list;
      (** the accuracy schedule's steps in size order; [[]] in train mode *)
}

val assemble : t -> read -> outcome
(** The run's result from completed stages. *)
