(** Deterministic fault injection for crash-safety testing.

    Production code marks the places where it can fail — a write about to
    hit the disk, a rename about to commit a model, a simulation task
    about to run — with {!point}.  A disarmed site costs one atomic load
    and nothing else, so the markers stay in release builds.  Tests arm a
    site to raise {!Injected} on an exact hit count, which makes every
    crash in the matrix reproducible: the k-th simulation task, the byte
    before the rename, the first journal append.

    Sites are addressed by name.  The conventional sites wired into the
    library are:

    - ["sim.task"] — entry of every pointwise simulation task
      ({!Archpred_core.Build})
    - ["sim.batch"] — before each batched simulation fan-out
      ({!Archpred_core.Build})
    - ["pool.task"] — entry of every attempt in
      {!Archpred_stats.Parallel.map_fallible}
    - ["io.write"] — before the body of an atomic file write
      ({!Archpred_core.Persist.save})
    - ["persist.rename"] — after the temp file is durable, before the
      rename commits it
    - ["shard.unit"] — for each work unit of a run directory, before
      it is computed ({!Archpred_shard})
    - ["shard.append"] — before a journal result record is written
    - ["shard.merge"] — before the journals of a run are merged
    - ["serve.accept"] — before each accept in the prediction daemon
      ({!Archpred_serve_net.Daemon})
    - ["serve.read"] — before each daemon socket read
    - ["serve.write"] — before each daemon socket write
    - ["serve.reload"] — at hot-reload entry, before the model file is
      opened

    Counting and arming are guarded by a mutex, so sites may be hit from
    worker domains; hit ordering across domains is scheduler-dependent,
    but the total count and the decision "n-th hit fires" are not. *)

exception Injected of string
(** Raised by {!point} at an armed site; carries the site name. *)

val point : string -> unit
(** [point site] marks an injection site.  No-op (one atomic load) unless
    the harness is active; when [site] is armed and this hit reaches the
    armed count, raises [Injected site]. *)

val arm : site:string -> after:int -> ?sticky:bool -> unit -> unit
(** [arm ~site ~after ()] makes the [after]-th hit of [site] (1-based,
    counted from the last {!reset}) raise {!Injected} — a transient
    fault: earlier and later hits pass.  With [~sticky:true] every hit
    from the [after]-th on raises — a permanent fault.  Re-arming a site
    replaces its previous arm; [after < 1] is invalid. *)

val disarm : string -> unit
(** Remove the arm on one site.  Hit counting continues. *)

val reset : unit -> unit
(** Disarm every site, zero every hit counter, stop recording. *)

val record : bool -> unit
(** [record true] counts hits at every site even with no arms set, so a
    dry run can measure the matrix (how many ["sim.task"] hits does this
    training run make?).  [record false] stops counting; counts are kept
    until {!reset}. *)

val hits : string -> int
(** Hits of one site since the last {!reset} (0 if never hit).  Only
    counted while recording or while any site is armed. *)
