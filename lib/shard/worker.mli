(** The worker loop of a sharded run.

    A worker derives the same {!Archpred_core.Pipeline.t} as every
    other participant and walks its stages in order — test, then per
    step: LHS, sim, tune.  Within a stage it repeatedly claims the first unclaimed
    incomplete unit ({!Claim}), computes its indices, journals the
    results, and commits the unit; when every unit of the stage is
    committed (by any worker) it moves on.  All control decisions
    (stage completion, early stop) are read off the merged journals, so
    workers coordinate through the filesystem alone and any of them can
    die at any point without corrupting the run.

    A worker reads the run directory once when it starts, folds its own
    commits into that view, and rereads it only when no unit of the
    current stage can be claimed; each read bumps ["shard.scans"].  A
    lone worker therefore reads the directory once however many units
    the run has.

    Fault site ["shard.unit"] fires after each successful claim, before
    the unit's computation — the canonical mid-unit crash point for
    tests. *)

val work :
  ?obs:Archpred_obs.t ->
  ?poll:float ->
  fingerprint:string ->
  Archpred_core.Pipeline.t ->
  dir:string ->
  id:string ->
  unit
(** Run worker [id] against run directory [dir] — whose [claims/] and
    [journals/] exist and whose journals carry the spec [fingerprint]
    the pipeline was derived from — until the schedule completes.  Units
    are {!Archpred_core.Pipeline.unit_size} indices.  A worker whose
    pipeline has D domains claims up to D consecutive units at a time
    and computes them in one fan-out over those domains; each unit is
    still journaled and committed on its own.  While every unit left is
    claimed by other workers it rescans, backing off from 1 ms to at
    most [poll] (default 20 ms).  Bumps
    the ["shard.units_done"] counter on [obs] per committed unit.
    Raises [Archpred _] on an unreadable or mismatched journal. *)

val run :
  ?obs:Archpred_obs.t -> dir:string -> id:string -> ?poll:float -> unit -> unit
(** {!work} as a worker process runs it: load [<dir>/spec.json] and
    derive a one-domain pipeline from it first.  Raises [Archpred _] on
    an unreadable or mismatched spec. *)
