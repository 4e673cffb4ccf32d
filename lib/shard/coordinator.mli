(** Run-directory setup, the worker, and final reassembly.

    The coordinator holds no search state.  It makes the directory the
    run directory of the spec — or resumes it, when it already holds the
    same spec — and runs the one worker ({!Worker.work}) in this process
    on the given domains.  When the worker is done it merges the
    journals and reassembles the result
    ({!Archpred_core.Pipeline.assemble}); the model is bit-identical to
    the equivalent single-process build however often the run was
    interrupted and resumed, because all values and decisions live in
    the journals, not in the process. *)

type outcome = {
  result : Archpred_core.Pipeline.outcome;
  test_error : Archpred_stats.Error_metrics.t option;
      (** final model's error on the merged held-out test stage
          ([None] when [test_n = 0]) *)
}

val run :
  ?obs:Archpred_obs.t ->
  dir:string ->
  spec:Spec.t ->
  domains:int ->
  unit ->
  outcome
(** Run (or resume) [spec] in [dir], created if missing, computing
    [domains] units at a time in one fan-out over [domains] domains.
    The process holds a [lockf] lock on [<dir>/lock] for the whole run,
    taken before any journal is opened: a directory another live process
    holds is refused with [Archpred (Io_error _)] naming [dir] (exit code
    4 in the CLI).  A directory that already holds a different spec is
    refused with [Archpred (Parse_error _)]; one that holds the same
    spec resumes, keeping its committed units.  Fault site
    ["shard.merge"] fires before the final merge.  An exception in the
    worker propagates, leaving the directory resumable. *)
