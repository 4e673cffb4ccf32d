(** The worker loop of a run directory.

    The worker derives the {!Archpred_core.Pipeline.t} of the run's spec
    and walks its stages in order — test, then per step: LHS, sim,
    tune.  Within a stage it takes the units the journals do not commit
    yet, in index order, computes their indices, journals the results,
    and commits each unit; when every unit of the stage is committed it
    moves on.  All control decisions (stage completion, early stop) are
    read off the merged journals, so the process can die at any point
    without corrupting the run, and a rerun resumes from its commits.

    The worker reads the run directory once when it starts (bumping
    ["shard.scans"]) and folds its own commits into that view, however
    many units the run has.

    Fault site ["shard.unit"] fires once per unit taken, before the
    unit's computation — the canonical mid-unit crash point for
    tests. *)

val work :
  ?obs:Archpred_obs.t ->
  fingerprint:string ->
  Archpred_core.Pipeline.t ->
  dir:string ->
  unit
(** Run the schedule to completion against run directory [dir] — whose
    [journals/] exists and whose journals carry the spec [fingerprint]
    the pipeline was derived from — journaling as ["w0"].  Units are
    {!Archpred_core.Pipeline.unit_size} indices.  A pipeline with D
    domains takes up to D consecutive incomplete units at a time and
    computes them in one fan-out over those domains; each unit is still
    journaled and committed on its own.  Bumps the
    ["shard.units_done"] counter on [obs] per committed unit.  Raises
    [Archpred _] on an unreadable or mismatched journal. *)
