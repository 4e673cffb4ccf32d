(** Atomic work-unit claims.

    A claim is a file in [<dir>/claims/] created with [O_CREAT|O_EXCL] —
    the filesystem's atomic create is the mutual exclusion, so claims
    work across worker {e processes} with no coordinator in the loop.
    The file body records the claiming worker's id for crash recovery:
    when a worker dies, the coordinator releases the dead worker's
    claims on units whose results never made it to a journal, and any
    live worker picks them up.

    Claims are advisory and crash-tolerant by construction: correctness
    comes from the journal's unit-commit markers ({!Journal}), never
    from a claim file — a stale claim can only delay work, not corrupt
    the model. *)

val init : dir:string -> unit
(** Create [<dir>/claims/] (idempotent).  Raises
    [Archpred (Io_error _)] on filesystem errors other than the
    directory already existing. *)

val claim : dir:string -> name:string -> owner:string -> bool
(** Try to claim the unit: [true] if this call created the claim file,
    [false] if another worker holds it.  Fault site: ["shard.claim"]
    before the exclusive create.  Raises [Archpred (Io_error _)] when
    the create fails for a reason other than the file existing. *)

val owner : dir:string -> name:string -> string option
(** The id recorded in the unit's claim file, if the file exists. *)

val release : dir:string -> name:string -> unit
(** Remove the unit's claim file.  Idempotent. *)

val release_incomplete :
  dir:string ->
  owner:string ->
  complete:(stage:string -> lo:int -> hi:int -> bool) ->
  unit
(** Release every claim held by [owner] whose unit is not [complete] —
    the coordinator's crash-recovery step after a worker dies.  Claims
    on completed units are left in place (they are inert). *)

val release_all_incomplete :
  dir:string -> complete:(stage:string -> lo:int -> hi:int -> bool) -> unit
(** {!release_incomplete} for every owner — the step that resumes a run
    directory no process is working on, whose claims were all left by
    processes that died. *)
