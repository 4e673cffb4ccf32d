(** The simulation-engine record behind [bench --sim].

    Times the per-config engine on the paper build's shape: the Table 2
    test box over the paper-sized mcf trace, on one domain.  The [sim]
    section of [BENCH_parallel.json] is the committed record.  That the
    engine matches the reference simulator bit for bit is [test_sim]'s
    job, not this record's. *)

type paper_shape = {
  paper_trace_length : int;  (** mcf trace length (60_000) *)
  paper_configs : int;
      (** Table 2 test-box configs ({!Paper_space.test_points}, seed 7) *)
  ns_per_inst_config : float;
      (** best-of-three [Batch.run_plan ~domains:1] wall time per
          simulated instruction per config *)
  cycles_crc : string;  (** CRC-32 of the comma-joined cycle counts *)
}
(** The paper build's per-config engine cost, apart from scheduling. *)

val paper_shape :
  ?trace_length:int -> ?n_configs:int -> ?reps:int -> unit -> paper_shape
(** Time [Batch.run_plan ~domains:1] over the Table 2 test box on the
    paper-sized mcf trace (defaults: 60_000 instructions, 64 configs,
    best of 3 runs).  Only the timing varies run to run. *)

val record : ?path:string -> paper_shape -> unit
(** Merge the [sim] section, [{"paper_shape": ...}], into the report at
    [path] (default [BENCH_parallel.json]), preserving the
    micro-benchmark [results] section if one is present. *)
