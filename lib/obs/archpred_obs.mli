(** Structured observability: hierarchical timing spans, counters, and
    gauges, with pluggable output sinks.

    A handle is either live (created with {!create}) or the free {!null}
    handle.  Every recording operation on {!null} is a no-op that costs
    one pattern match, so instrumented code pays nothing when
    observability is off.

    Domain behaviour: spans and counters may be recorded from any domain
    (the parallel pipeline stages run on {!Stats.Parallel} workers).
    Each domain keeps a private span stack and counter buffer; counter
    deltas are merged into the shared totals when one of that domain's
    spans closes, and on any read ({!counters}, {!report}, {!close}).
    Read APIs must be called outside parallel sections. *)

module Error = Error
module Json = Json
module Sink = Sink

val now_ns : unit -> int64
(** Monotonic clock read (CLOCK_MONOTONIC, nanoseconds).  Exported so
    elapsed-time measurements elsewhere (the daemon's request deadlines,
    experiment timing) never touch the wall clock — archpred-analyze's
    [impure] rule forbids [Unix.gettimeofday]/[Sys.time] outside this
    library, [lib/serve_net] and [bench/]. *)

val seconds_since : int64 -> float
(** [seconds_since t0]: seconds elapsed since the {!now_ns} reading
    [t0]. *)

type t

val null : t
(** The disabled handle: recording is a no-op, reads return nothing. *)

val create : ?sink:Sink.t -> unit -> t
(** Fresh handle streaming events to [sink] (default {!Sink.silent};
    aggregates are still collected for {!report} either way). *)

val enabled : t -> bool

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] times [f ()] under span [name], nested inside
    whatever span is open on the current domain.  Exception-safe: the
    span closes (and is recorded) even if [f] raises. *)

val count : t -> string -> int -> unit
(** Add to a named counter.  Safe to call from worker domains. *)

val incr : t -> string -> unit
(** [incr t name] is [count t name 1]. *)

val gauge : t -> string -> float -> unit
(** Record a point-in-time observation (last write wins in the
    aggregate; each write is streamed to the sink). *)

val counters : t -> (string * int) list
(** Merged counter totals, sorted by name.  Call outside parallel
    sections only. *)

val counter : t -> string -> int
(** One counter's merged total; 0 if never incremented. *)

val spans : t -> (string list * int) list
(** Aggregated span paths with call counts, in first-seen order. *)

val report : t -> Format.formatter -> unit
(** Human-readable summary: span tree with total/self time and call
    counts, then counters and gauges.  [self] excludes time spent in
    recorded child spans. *)

val close : t -> unit
(** Merge all counter buffers, emit final [Counter] events to the sink,
    and flush it.  Idempotent in effect but re-emits totals if counters
    moved since the last close; call once at end of run. *)
