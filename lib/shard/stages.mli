(** The deterministic decomposition of model construction into sharded
    stages — and its exact reassembly.

    Every value a sharded run journals is a pure function of the
    {!Spec.t}: LHS candidate streams are re-derived by replaying the
    root generator's split discipline (test points first, then one
    split per already-scored candidate, exactly as the CLI and
    {!Archpred_design.Optimize.best_lhs} consume it), design points are
    simulated per index, and tuning cells are walked in the canonical
    {!Archpred_core.Tune.cells} order.  Control decisions — LHS winner,
    tune winner, early stop — are arg-mins over merged journal values,
    so every worker and the final merge independently reach the same
    decisions with no coordinator messages.  {!assemble} therefore
    reproduces {!Archpred_core.Build.train} /
    [Build.build_to_accuracy] bit for bit
    ({!Archpred_core.Persist.to_string}-identical predictors) at any
    worker count.

    Stage names: ["test"], ["lhs.<k>"], ["sim.<k>"], ["tune.<k>"].  In
    stream-refit mode ([spec.stream_refit] with an accuracy schedule)
    there is a single ["lhs.0"] campaign at the largest size, each
    ["sim.<k>"] covers only the rows new at step [k], and there are no
    tune stages — tuning state advances by rank-1 pushes
    ({!Archpred_core.Refit}) during reassembly. *)

type ctx
(** Per-process context: spec, derived config/response, and caches of
    recomputed values.  Not thread-safe — one per worker process (or
    per driving domain in tests); a stage's [compute] fans its own unit
    out over [domains] but fills the caches before it does. *)

val create : ?obs:Archpred_obs.t -> ?domains:int -> Spec.t -> ctx
(** Validate the spec and derive the context (draws the held-out test
    points, fixing the post-test generator state; none when
    [test_n = 0]).  [domains] (default 1) is the fan-out of each
    unit's computation; values do not depend on it. *)

val spec : ctx -> Spec.t
(** The validated spec the context was derived from. *)

val domains : ctx -> int
(** The fan-out the context was created with. *)

val n_steps : ctx -> int
(** Schedule length: 1 in train mode, the number of distinct sizes in
    accuracy mode. *)

val stream : ctx -> bool
(** Is this a streaming-refit run? *)

(** {2 Stage descriptors} *)

type stage = {
  name : string;  (** journal stage key *)
  count : int;  (** indices in the stage *)
  compute : Journal.scan -> lo:int -> hi:int -> float array;
      (** the values at indices [lo..hi-1] — a pure function of the spec
          and of {e completed earlier} stages in the scan, bit-identical
          at any [domains].  Unit-granular so simulation units run
          through the batched engine
          ({!Archpred_core.Response.evaluate_many}, bit-identical to the
          pointwise path) instead of one trace walk per index *)
}

val test_stage : ctx -> stage option
(** Held-out test-point responses ([None] when [test_n = 0]). *)

val lhs_stage : ctx -> step:int -> stage
(** Candidate discrepancies for step [step].  Raises in stream mode for
    [step > 0] (there is only the one campaign). *)

val sim_stage : ctx -> step:int -> stage
(** Design-point responses for step [step] (requires the step's LHS
    stage complete in the scan). *)

val tune_stage : ctx -> step:int -> stage option
(** Tuning-cell criteria for step [step] (requires the step's sim stage
    complete); [None] in stream mode. *)

val test_points : ctx -> Archpred_design.Space.point array
(** The held-out test points ([test_n] of them, drawn at {!create}). *)

val test_actuals : ctx -> Journal.scan -> float array
(** The merged ["test"]-stage responses.  Raises
    [Archpred (Infeasible _)] if the stage is incomplete. *)

(** {2 Control decisions and reassembly} *)

val stop_after : ctx -> Journal.scan -> step:int -> bool
(** Is [step] the last (train mode, schedule exhausted, or target
    accuracy reached)?  Requires the step's stages complete. *)

type outcome = {
  final : Archpred_core.Build.trained;
  steps : Archpred_core.Build.step list;
      (** accuracy-mode history in size order; [[]] in train mode *)
}

val assemble : ctx -> Journal.scan -> outcome
(** Reassemble the run's result from a complete merged scan — the
    record the equivalent single-process build would return. *)
