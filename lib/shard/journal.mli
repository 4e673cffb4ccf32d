(** Per-worker result journals and the canonical merge.

    Every worker owns one append-only journal,
    [<dir>/journals/<worker>.journal], of CRC-framed JSON lines
    ({!frame}).  Line one is a header carrying the {!Spec.fingerprint};
    after it come [result] records —
    one [(stage, index, value)] per computed index, floats in hex — and
    [unit] markers committing a {!Plan.unit_}.  Results count only once
    a marker in the {e same} journal covers them: a worker killed
    mid-unit leaves appended-but-uncommitted results that the merge
    discards, and the unit is reclaimed.

    {b Canonical merge.}  {!scan_dir} reads journals in filename order
    (bytewise [String.compare]) and keeps the first committed value for
    each [(stage, index)].  Because every index's value is a
    deterministic function of the spec — whichever worker computes it —
    duplicate commits are bit-identical, so the merged table (and
    therefore the final model) does not depend on worker count, timing,
    or crashes.  Torn or corrupted tails truncate the affected journal
    at the last valid line.

    {b Total reader.}  {!open_} and {!scan_dir} accept any bytes: a
    journal is either read (up to its last intact line) or refused with
    a typed [Archpred _] error, never an untyped exception. *)

(** {2 Framing}

    One journal line is ["<crc32-hex> <payload-json>\n"], the 8-digit
    checksum being the CRC-32 of the payload bytes.  The run's spec
    ({!Spec}) writes its floats with the same hex helpers. *)

val frame : string -> string
(** [frame payload] is the journal line for [payload]. *)

val unframe : string -> Archpred_obs.Json.t option
(** Parse one newline-stripped line: the payload JSON if the checksum
    verifies and the payload parses, [None] for a torn or corrupted
    line. *)

val float_to_hex_string : float -> string
(** ["%h"] rendering — round-trips every bit pattern. *)

val float_of_hex_string : string -> float option
(** Inverse of {!float_to_hex_string} (accepts any [float_of_string]
    literal). *)

(** {2 Write side} *)

val init : dir:string -> unit
(** Create [<dir>/journals/] (idempotent). *)

type t
(** An open journal (write side). *)

val open_ : dir:string -> worker:string -> fingerprint:string -> t
(** Open (or resume) worker [worker]'s journal.  A fresh journal gets a
    fsynced header stamped with [fingerprint]; an existing one is
    truncated past its last valid line and its header checked against
    [fingerprint] ([Archpred (Parse_error _)] on mismatch). *)

val append_result : t -> stage:string -> index:int -> value:float -> unit
(** Append one result record (buffered — it reaches the file with the
    next unit marker).  Fault site: ["shard.append"]. *)

val commit_unit : t -> stage:string -> lo:int -> hi:int -> unit
(** Append a unit marker and flush it to the OS: after this returns, the
    unit survives the death of the process.  Every eighth marker, and
    {!close}, also fsyncs, so a power loss costs at most the last few
    units' recomputation — a torn or zeroed tail only shortens the
    valid prefix. *)

val close : t -> unit
(** Flush, fsync, and close. *)

(** {2 Merge} *)

type scan
(** The merged view of every journal in a run directory. *)

val scan_dir : dir:string -> fingerprint:string -> scan
(** Merge all journals under [<dir>/journals/] (canonical order; see
    above).  A missing directory merges to an empty scan; a journal
    whose header fingerprint differs from [fingerprint] raises
    [Archpred (Parse_error _)].  Fault site: ["shard.merge"]. *)

val unit_complete : scan -> stage:string -> lo:int -> hi:int -> bool
(** Has some journal committed this exact unit? *)

val value : scan -> stage:string -> index:int -> float option
(** The merged value at [(stage, index)], if committed anywhere. *)

val record_unit : scan -> stage:string -> lo:int -> float array -> unit
(** Fold a unit this process has just committed into [scan] — values at
    [lo..], first wins — so a worker's view includes its own commits
    without rereading the directory. *)

val stage_values : scan -> stage:string -> count:int -> float array
(** All [count] values of [stage], in index order.  Raises
    [Archpred (Infeasible _)] if any index is missing — callers check
    unit completeness first. *)
