(** The reference engine: the cycle-level pipeline that
    {!Archpred_sim.Batch} documents and simulates, here one config at a
    time and cycle by cycle, over the OCaml memory hierarchy ({!Memory},
    {!Dram}, {!Fu_pool} and [Archpred_sim.Cache]).  The test suite holds
    the batched engine to it bit for bit.  Deterministic: a (trace,
    config) pair always yields the same cycle count. *)

val run : ?max_cycles:int -> ?warm:bool -> Config.t -> Trace.t -> Batch.result
(** Simulate a trace to completion.  [max_cycles] (default
    [200 * length + 10_000_000]) guards against engine bugs; exceeding it
    raises {!Batch.Cycle_limit_exceeded}.  [warm] (default [true]) first replays
    the trace's reference streams through the caches and branch predictor
    without timing, approximating the steady state of a long-running
    program; without it, compulsory misses dominate short traces.  Raises
    [Invalid_argument] if the configuration fails [Config.validate]. *)

val cpi : ?max_cycles:int -> ?warm:bool -> Config.t -> Trace.t -> float
(** [run] and return just the CPI — the response the models are built
    for. *)
