(** The shared envelope of every [BENCH_*.json] report.

    Every machine-readable benchmark report carries the same leading
    fields — a schema tag, the envelope schema version, the host's core
    count, the default domain count, the [git describe] stamp and the
    SIMD levels the prediction and the training kernels dispatched to —
    so regression tooling can treat them uniformly.  This module is the
    one writer of that envelope. *)

val write :
  path:string -> schema:string -> (string * Archpred_obs.Json.t) list -> unit
(** Serialise the envelope followed by the payload [fields], as one
    object, to [path] with a trailing newline. *)
