(** Batched multi-config simulation: the cycle-level superscalar
    pipeline.

    A trace-driven out-of-order engine in the style of SimpleScalar's
    sim-outorder, reduced to the events that the paper's nine design
    parameters govern:

    - in-order fetch/dispatch of up to [fetch_width] instructions per
      cycle, stalling on a full ROB/IQ/LSQ, on L1I misses (a new cache line
      is probed whenever fetch crosses a line boundary), and after
      (predicted-)taken control transfers (one taken transfer per cycle);
    - branch prediction at fetch (gshare + BTB); on a misprediction the
      front end stops and resumes [pipe_depth] cycles after the branch
      executes — pipeline depth sets the refill penalty;
    - dispatch into a [rob_size]-entry reorder buffer; non-nop instructions
      also take an issue-queue slot until they issue, loads and stores a
      LSQ slot until they commit;
    - out-of-order, oldest-first issue of up to [issue_width] ready
      instructions per cycle, subject to functional-unit bandwidth; loads
      wait for all older stores' addresses, forward from a matching older
      store, and otherwise access the L1D/L2/DRAM hierarchy with queueing
      and bus contention;
    - in-order commit of up to [commit_width] completed instructions per
      cycle; stores update the memory hierarchy at commit.

    The engine is deterministic: a (trace, config) pair always yields the
    same cycle count.  A batch decodes the trace once and shares
    everything that does not depend on the configuration:

    - the instruction streams (opcodes, absolute operand producers,
      addresses, PCs, branch outcomes, the older-store chain) live in
      one flat struct-of-arrays {!plan} read by every config;
    - the branch predictor interacts with the trace in pure program
      order, so its per-branch mispredict outcomes are computed once
      per plan, distinct predictor configuration and [warm], kept on the
      plan and shared by every later run of it;
    - the per-config cycle walk skips provably quiet stretches (cache
      fills, misprediction refills, long dependency chains) in one
      jump instead of cycling through them.

    The per-config walk is a C engine that runs each config with the
    domain's runtime released.  The test suite holds an OCaml reference
    engine, one config at a time and cycle by cycle, and QCheck replay
    properties enforce that every result here is bit-identical to it.

    The natural unit is the LHS candidate batch of a training run: the
    same workload trace evaluated under tens of design points.  Configs
    fan out over the domain pool when [domains > 1]; results are in
    input order and independent of the domain count. *)

type result = {
  instructions : int;
  cycles : int;
  cpi : float;
  branch_accuracy : float;
  il1_miss_rate : float;
  dl1_miss_rate : float;
  l2_miss_rate : float;
  dram_accesses : int;
  dram_avg_latency : float;
  avg_rob_occupancy : float;
  avg_iq_occupancy : float;
  avg_lsq_occupancy : float;
  dispatch_stall_rob : int;  (** cycles fetch blocked on a full ROB *)
  dispatch_stall_iq : int;
  dispatch_stall_lsq : int;
  fetch_stall_icache : int;  (** cycles fetch blocked on an L1I miss *)
  fetch_stall_branch : int;  (** cycles fetch blocked on a misprediction *)
}
(** One config's run of the whole trace. *)

exception Cycle_limit_exceeded of int
(** A run passed its [max_cycles], at the carried cycle. *)

val pp_result : Format.formatter -> result -> unit

type plan
(** A workload trace decoded into shared, immutable simulation streams,
    plus the mispredict streams its runs have built.  Safe to reuse
    across [run_plan] calls and across domains, also concurrently. *)

val plan : Trace.t -> plan
(** Decode [trace] once.  O(length) time and memory. *)

val length : plan -> int
(** Number of instructions in the decoded trace. *)

val run_plan :
  ?max_cycles:int ->
  ?warm:bool ->
  ?domains:int ->
  plan ->
  Config.t array ->
  result array
(** Simulate every configuration to completion against the decoded
    trace.  [max_cycles] (default [200 * length + 10_000_000]) guards
    against engine bugs; exceeding it raises {!Cycle_limit_exceeded}.
    [warm] (default [true]) first replays the trace's reference streams
    through the caches and branch predictor without timing,
    approximating the steady state of a long-running program; without
    it, compulsory misses dominate short traces.  Raises
    [Invalid_argument] if any config fails [Config.validate].  With
    [domains > 1] configs are simulated on the domain pool; results are
    bit-identical at every domain count. *)

type counters = {
  cycles_stepped : int;  (** loop iterations: cycles simulated one by one *)
  cycles_skipped : int;  (** cycles covered by quiet-stretch jumps *)
  issue_attempts : int;  (** candidate slots offered to the issue stage *)
  store_walk_steps : int;  (** older stores examined by loads' store walks *)
  il1_accesses : int;  (** accesses per cache level, after warm-up *)
  dl1_accesses : int;
  l2_accesses : int;
}
(** Where one config's simulation went.  [cycles_stepped +
    cycles_skipped] is the result's [cycles]. *)

val run_plan_counted :
  ?max_cycles:int ->
  ?warm:bool ->
  ?domains:int ->
  plan ->
  Config.t array ->
  (result * counters) array
(** [run_plan], with each config's {!counters}. *)

val trim : unit -> unit
(** Free the memory of the simulation engines idle between runs.  The
    configs of a batch, and of successive batches, reuse one engine per
    domain, whose cache arrays stay resident in between; call [trim]
    when a stretch of simulation ends, so they are not resident through
    what follows.  The next run allocates afresh. *)

val cpi :
  ?max_cycles:int ->
  ?warm:bool ->
  ?domains:int ->
  Config.t array ->
  Trace.t ->
  float array
(** Cycles per instruction of every config: [run_plan (plan trace)]'s
    [cpi] fields, the response the models are built for. *)
