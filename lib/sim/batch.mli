(** Batched multi-config simulation.

    [run configs trace] produces, for every configuration, exactly the
    result of [Processor.run cfg trace] — bit-identical, enforced by
    QCheck replay properties — while decoding the trace once and
    sharing everything that does not depend on the configuration:

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
    domain's runtime released; this is the only simulation path
    production uses.  {!Processor} stays as the OCaml reference the
    engine is tested against.

    The natural unit is the LHS candidate batch of a training run: the
    same workload trace evaluated under tens of design points.  Configs
    fan out over the domain pool when [domains > 1]; results are in
    input order and independent of the domain count. *)

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
  Processor.result array
(** Simulate every configuration against the decoded trace.
    [warm] (default [true]) pre-heats caches and predictor exactly as
    [Processor.run] does.  Raises [Invalid_argument] if any config
    fails validation, and [Processor.Cycle_limit_exceeded] as the
    reference would.  With [domains > 1] configs are simulated on the
    domain pool; results are bit-identical at every domain count. *)

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
  (Processor.result * counters) array
(** [run_plan], with each config's {!counters}. *)

val trim : unit -> unit
(** Free the memory of the simulation engines idle between runs.  The
    configs of a batch, and of successive batches, reuse one engine per
    domain, whose cache arrays stay resident in between; call [trim]
    when a stretch of simulation ends, so they are not resident through
    what follows.  The next run allocates afresh. *)

val run :
  ?max_cycles:int ->
  ?warm:bool ->
  ?domains:int ->
  Config.t array ->
  Trace.t ->
  Processor.result array
(** [run configs trace] is [run_plan (plan trace) configs]. *)

val cpi :
  ?max_cycles:int ->
  ?warm:bool ->
  ?domains:int ->
  Config.t array ->
  Trace.t ->
  float array
(** Cycles per instruction of every config, as [Processor.cpi]. *)
