(** Total parsers for the text the benchmark reads from the program and
    the kernel. *)

val vmhwm_kb : string -> int option
(** Peak resident set ([VmHWM], in kB) from the text of
    [/proc/<pid>/status]; [None] when the line is absent (an exited
    process) or malformed. *)

val cpu_ticks : string -> int option
(** User plus system CPU time, in clock ticks, from the text of
    [/proc/<pid>/stat]. *)

val test_error_mean : string -> string option
(** The mean test error from `archpred train` stdout, as printed (the
    digits of [test error: mean=5.12%], here ["5.12"]). *)

type drain = {
  connections : int;
  requests : int;
  answered : int;
  shed : int;
  timeouts : int;
  bad_requests : int;
  protocol_errors : int;
  hits : int;
  misses : int;
  bypasses : int;
  lost : int;
}

val drain_block : string -> drain option
(** The statistics block `archpred served` prints after a drain. *)

val counters : string -> (string * int) list
(** Counter totals from an [--metrics] JSON-lines stream, sorted by
    name. *)
