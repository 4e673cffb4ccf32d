(** The batched-simulation throughput record behind [bench --sim].

    Simulates a deterministic spread of processor configurations — every
    cache-replacement policy represented — over one decoded workload
    trace, through the sequential reference ({!Archpred_sim.Processor.run},
    one full decode-and-walk per config) and the batched engine
    ({!Archpred_sim.Batch}), and reports per-config simulation rates and
    the aggregate batching speedup.  Every batched result is checked
    bit-identical against its sequential reference; the [sim] section of
    [BENCH_parallel.json] is the committed record. *)

type rate = {
  name : string;  (** ["config_NN"], the index into the spread *)
  policy : string;  (** replacement policy, {!Archpred_sim.Cache.Policy} *)
  cpi : float;
  inst_per_sec : float;  (** sequential-reference simulation rate *)
}

type speedup = {
  batch : int;  (** configs simulated together *)
  sequential_s : float;  (** summed [Processor.run] time of those configs *)
  batched_s : float;  (** one [Batch.run_plan] over them *)
  speedup : float;  (** [sequential_s /. batched_s] *)
}

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

type result = {
  trace_length : int;
  n_configs : int;
  rates : rate list;
  speedups : speedup list;
  bit_identical : bool;
      (** every batched result matched its sequential reference bitwise *)
}

val configs : int -> Archpred_sim.Config.t array
(** The deterministic configuration spread ([n] entries); cycles through
    all four replacement policies and a range of pipeline, window and
    cache shapes. *)

val run :
  ?trace_length:int -> ?n_configs:int -> ?batches:int list -> unit -> result
(** Measure (defaults: 20_000-instruction mcf trace, 16 configs, batch
    sizes [[1; 4; 16]]).  The simulated values are deterministic; only
    the timings vary run to run.  Raises [Archpred (Invalid_input _)] on
    a degenerate budget or a batch size outside [[1, n_configs]]. *)

val paper_shape :
  ?trace_length:int -> ?n_configs:int -> ?reps:int -> unit -> paper_shape
(** Time [Batch.run_plan ~domains:1] over the Table 2 test box on the
    paper-sized mcf trace (defaults: 60_000 instructions, 64 configs,
    best of 3 runs).  Only the timing varies run to run. *)

val json_of_result : ?paper:paper_shape -> result -> Archpred_obs.Json.t
(** The [sim] section payload, with a [paper_shape] object when
    [paper] is given. *)

val record : ?path:string -> ?paper:paper_shape -> result -> unit
(** Merge the [sim] section into the report at [path] (default
    [BENCH_parallel.json]), preserving the micro-benchmark [results]
    section if one is present. *)
