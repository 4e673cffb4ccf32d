(** BuildRBFmodel — the paper's model-construction procedure (section 1).

    One {!train} call performs steps 2–4 for a fixed sample size: draw the
    best-of-N latin hypercube sample, obtain responses (simulate), tune
    (p_min, alpha) and select RBF centers by AICc, and fit the weights.
    {!build_to_accuracy} is the full iterative procedure (steps 2–6):
    train at increasing sample sizes, estimating accuracy after each on an
    independent random test set, until the target accuracy is reached or
    the size schedule is exhausted.

    Both walk the stages of {!Pipeline} over an in-memory table of
    stage values, in the order a lone run-directory worker claims their
    units, and are configured by a {!Config.t} record (re-exported here
    as [Build.Config]). *)

module Config = Config

type trained = Pipeline.trained = {
  predictor : Predictor.t;
  sample : Archpred_design.Space.point array;
  sample_responses : float array;
  discrepancy : float;  (** L2-star discrepancy of the chosen sample *)
  criterion : float;  (** AICc of the selected model *)
  tune : Tune.result;
}

val train :
  ?config:Config.t ->
  space:Archpred_design.Space.t ->
  response:Response.t ->
  unit ->
  trained
(** Train a model on a [config.sample_size]-point sample of [space].
    [config.lhs_candidates] latin hypercube samples are scored by L2-star
    discrepancy and the best is simulated.  [config.domains] reaches every
    parallel stage — candidate scoring, simulation, and the tuning grid —
    and the trained predictor is identical for every value of it, and for
    any observability sink.  Records the ["build.train"] span with
    the stages' ["design.best_lhs"], ["build.simulate"] and
    ["build.tune"] spans on [config.obs], and samples the
    ["pool.queue_depth"] gauge.  [config.rng], when set, ends
    [config.lhs_candidates] splits further on, as after
    {!Archpred_design.Optimize.best_lhs}.  Raises
    [Archpred (Invalid_input _)] on an invalid configuration
    ({!Config.validate}).

    {b Simulation} ({!Pipeline.walk} has the details).  A response with
    a batched evaluator ({!Response.t.eval_many} — the simulator
    responses do) runs [config.domains] x [config.sim_batch] points at a
    time through {!Archpred_sim.Batch}: the trace is decoded once and
    shared across configurations, bit-identically to [Processor.run].
    Any other response (or [sim_batch = 1]) simulates each point as a
    task retried up to [config.task_retries] times (optionally under
    [config.task_deadline]); points that keep failing end the build
    with one [Archpred (Infeasible _)], and the ["pool.retries"] and
    ["pool.failed_tasks"] counters record the retries and failures.

    {b Crash safety} is a run directory's ({!Archpred_shard}): its
    workers journal the same stages and reassemble a bit-identical
    model after any interruption. *)

type step = Pipeline.step = {
  size : int;
  trained : trained;
  test_error : Archpred_stats.Error_metrics.t;
}

type history = {
  steps : step list;  (** in increasing-size order *)
  final : step;  (** the last (or first sufficiently accurate) step *)
}

val build_to_accuracy :
  ?config:Config.t ->
  space:Archpred_design.Space.t ->
  response:Response.t ->
  sizes:int list ->
  test_points:Archpred_design.Space.point array ->
  test_responses:float array ->
  target_mean_pct:float ->
  unit ->
  history
(** Run the procedure over the ascending [sizes] schedule
    ([config.sample_size] is ignored), stopping early once the mean test
    error falls at or below [target_mean_pct] percent.  Every size draws
    from one shared generator stream resolved once from [config].
    [test_responses] are the responses at [test_points].  Raises
    [Archpred (Invalid_input _)] on an empty size schedule or arrays of
    different lengths.

    {b Streaming refit.}  With [config.stream_refit] the schedule departs
    from the paper's redraw-per-size procedure: one LHS campaign is run
    at the largest size, each step's sample is the prefix of that nested
    sample, only the new rows are simulated, and the tuning grid is
    extended by rank-1 moment pushes ({!Refit}) instead of refit from
    scratch — with a periodic from-scratch cross-check every
    [config.refit_full_every] steps.  Each step's [trained.discrepancy]
    is then the discrepancy of the full nested sample.  The streamed
    model is deterministic in the configuration — identical at any
    domain or worker-process count — but (by design) differs from the
    default procedure's model. *)
