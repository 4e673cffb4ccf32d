(** Pluggable destinations for observability events.

    A sink is a pair of functions; the observability layer serialises
    access to [emit] (it is called under the handle's lock at span close
    and flush time), so sink implementations need no locking of their
    own.  The {!memory} sink locks anyway, since tests may read while a
    recording is in flight. *)

type event =
  | Span of { path : string list; ns : int64 }
      (** A span closed; [path] is the root-to-leaf name chain, [ns] the
          monotonic-clock elapsed time. *)
  | Counter of { name : string; value : int }
      (** Final merged total for one counter (emitted at close). *)
  | Gauge of { name : string; value : float }
      (** A gauge observation (emitted when set). *)

type t

val emit : t -> event -> unit
val flush : t -> unit

val silent : t
(** Drops everything.  Recording against the silent sink still feeds the
    in-memory aggregate (counters, span tree), just no streaming output. *)

val jsonl : (string -> unit) -> t
(** One compact JSON object per event, handed to the writer without a
    trailing newline.  Shapes:
    [{"type":"span","path":"build.train/build.sample","ns":123456}],
    [{"type":"counter","name":"sim.runs","value":104}],
    [{"type":"gauge","name":"pool.queue_depth","value":0}]. *)

val jsonl_channel : out_channel -> t
(** {!jsonl} writing newline-terminated lines to a channel; [flush]
    flushes the channel. *)

val memory : unit -> t * (unit -> event list)
(** Collecting sink for tests: the second component returns the events
    emitted so far, oldest first. *)
