(** Run-directory setup, worker supervision and final reassembly.

    The coordinator holds no search state.  It makes the directory the
    run directory of the spec — or resumes it, when it already holds the
    same spec — and runs the workers: either one worker in this process,
    or [count] worker processes spawned through the [argv] hook (each
    must end up in {!Worker.run} against the same directory), which it
    babysits — releasing a casualty's incomplete claims and respawning
    it under a fresh id within the respawn budget.  When the workers are
    done it merges the journals and reassembles the result
    ({!Archpred_core.Pipeline.assemble}); the model is bit-identical to the equivalent
    single-process build however the run was split, interrupted and
    resumed, because all values and decisions live in the journals, not
    in the processes. *)

type workers =
  | In_process of { domains : int }
      (** one worker, ["w0"], in this process, computing [domains]
          units at a time in one fan-out over [domains] domains *)
  | Processes of { count : int; argv : string -> string array }
      (** [count] worker processes; [argv id] is the command vector for
          worker [id] (e.g. [[| exe; "worker"; "--dir"; dir; "--id"; id |]]),
          respawned workers get ids ["<base>.r<k>"] *)

type outcome = {
  result : Archpred_core.Pipeline.outcome;
  test_error : Archpred_stats.Error_metrics.t option;
      (** final model's error on the merged held-out test stage
          ([None] when [test_n = 0]) *)
  workers : int;  (** workers requested *)
  respawns : int;  (** casualties replaced along the way *)
}

val run :
  ?obs:Archpred_obs.t ->
  dir:string ->
  spec:Spec.t ->
  workers:workers ->
  ?max_respawns:int ->
  ?poll:float ->
  unit ->
  outcome
(** Run (or resume) [spec] in [dir], created if missing.  A directory
    that already holds a different spec is refused with
    [Archpred (Parse_error _)]; one that holds the same spec resumes:
    committed units are kept, and claims a dead process left on
    uncommitted units are released before any worker starts.  [poll]
    (default 50 ms) is the supervision interval.  Counts
    ["shard.workers"] and ["shard.respawns"] on [obs].  Fault site
    ["shard.merge"] fires before the final merge.  Raises
    [Archpred (Infeasible _)] when the respawn budget ([max_respawns],
    default 8) is exhausted, after terminating the remaining workers;
    an exception in the in-process worker propagates, leaving the
    directory resumable. *)
