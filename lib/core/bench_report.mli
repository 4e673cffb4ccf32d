(** The shared envelope of every [BENCH_*.json] report.

    All machine-readable benchmark reports (the micro-benchmark record,
    the batched simulation record, the sharded search record,
    perfbench's record) carry the same leading fields — a schema tag, the
    envelope schema version, the host's core count, the default domain
    count, the [git describe] stamp and the SIMD levels the prediction
    and the training kernels dispatched to — so
    regression tooling can treat them uniformly.  This module is the one
    writer of that envelope. *)

val schema_version : int
(** Version of the envelope itself (the leading fields), not of any
    report's payload; currently [1]. *)

val git_describe : unit -> string
(** [git describe --always], with [-dirty] appended when a tracked file
    other than the [BENCH_*.json] records in the working directory
    differs from the commit; ["unknown"] outside a work tree. *)

val metadata : unit -> (string * Archpred_obs.Json.t) list
(** The environment stamp: [cores] (the cores available to the
    process), [domains], [git_describe], [simd] and [simd_training]
    ({!Archpred_simd.Simd.level} and {!Archpred_simd.Simd.training}). *)

val envelope : schema:string -> (string * Archpred_obs.Json.t) list
(** [schema] and [schema_version] followed by {!metadata}. *)

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
