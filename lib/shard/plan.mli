(** Deterministic work-unit partition of a run directory.

    Every parallel stage of model construction — LHS candidate scoring,
    design-point simulation, tuning-grid cells — is an indexed batch of
    independent computations.  A stage of [count] indices is cut into
    half-open ranges of [chunk] indices each; the partition is a pure
    function of [(count, chunk)], so a run and its resumption derive the
    same unit list.  Units are the granularity of journal commit
    ({!Journal}): a process that dies mid-unit leaves no committed trace
    of it, and the rerun computes the unit again. *)

type unit_ = { stage : string; lo : int; hi : int }
(** Indices [lo, hi) of [stage]. *)

val units : stage:string -> count:int -> chunk:int -> unit_ array
(** The canonical partition of a [count]-index stage into [chunk]-sized
    units (the last may be short), in index order.  Raises
    [Invalid_argument] when [chunk < 1] or [count < 0]. *)
