(** Streaming incremental refit across a growing sample.

    [Build.build_to_accuracy]'s default procedure redraws the sample and
    refits every tuning-grid cell from scratch at each size step — the
    paper's protocol, kept bit-for-bit as the default.  With
    [Config.stream_refit] the schedule instead grows one nested sample,
    and this module carries the tuning state across steps:

    - At the first step (and at every periodic full rebuild) each
      [p_min x alpha] cell builds its regression tree, derives the
      candidate centers, computes the full design matrix, and retains
      the Gram moments ({!Archpred_rbf.Subset_scorer}).
    - At later steps each new simulation point becomes one rank-1 row
      push per cell ({!Archpred_rbf.Subset_scorer.add_row}) — O(M^2)
      instead of the O(n M^2) moment rebuild — after which the
      tree-ordered selection re-runs against the grown sample with the
      frozen tree and candidate set.

    Rows are pushed strictly in sample-index order, so the moments — and
    therefore the selected model — are identical whatever process or
    domain count delivered the rows: the sharded coordinator and the
    single-process run produce the same bits.

    Observability (on [Config.obs]): the ["build.refit"] span,
    ["refit.rows_full"] (rows folded in by from-scratch builds, per
    cell), ["refit.rows_pushed"] (rows folded in by streamed pushes, per
    cell — the ratio of the two is the measured cost reduction),
    ["refit.crosschecks"] and the ["refit.crosscheck_delta"] gauge
    (streamed-vs-rebuilt criterion gap at each periodic check). *)

type t
(** Tuning state carried across the size steps of one streaming run. *)

val create : Config.t -> t
(** Capture the tuning inputs — criterion, grids, domain count,
    observability handle, and the full-rebuild cadence
    [refit_full_every] ([0] = never rebuild after the first step) — from
    the configuration.  Raises [Archpred (Invalid_input _)] on an empty
    grid or a negative cadence. *)

val fit :
  t ->
  dim:int ->
  points:float array array ->
  responses:float array ->
  Tune.result
(** Fit the tuning grid to the current sample prefix and return the
    winning cell, exactly as [Tune.tune] would shape it.  The first call
    builds every cell from scratch; later calls must pass a sample that
    *extends* the previous one (same rows, new ones appended) and fold
    only the new rows in.  Every [refit_full_every]-th step rebuilds
    from scratch, records the criterion drift, and adopts the rebuilt
    basis.  Raises [Invalid_argument] on a mismatched or shrinking
    sample. *)
