(** The shared envelope of every [BENCH_*.json] report.

    All machine-readable benchmark reports (the micro-benchmark record,
    the batched simulation record, the sharded search record,
    perfbench's record) carry the same leading fields — a schema tag, the
    envelope schema version, the host's core count, the default domain
    count, the [git describe] stamp and the SIMD levels the prediction
    and the training kernels dispatched to — so
    regression tooling can treat them uniformly.  This module is the one
    writer of that envelope. *)

val preserved :
  path:string -> string list -> (string * Archpred_obs.Json.t) list
(** The members of [keys] present in the JSON report at [path], in key
    order; [[]] when the file is missing or unparseable.  Lets two
    writers share one report file (e.g. the micro results and the
    simulation section of [BENCH_parallel.json]) without clobbering each
    other's sections. *)

val write :
  path:string -> schema:string -> (string * Archpred_obs.Json.t) list -> unit
(** Serialise {!envelope} followed by the payload [fields], as one
    object, to [path] with a trailing newline. *)
