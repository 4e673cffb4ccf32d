(** Trace statistics for the first-order analytical model.

    Karkhanis and Smith's first-order model (ISCA 2004, reference [11] of
    the paper) predicts CPI from a program's *inherent* characteristics
    plus counts of miss events at a given configuration.  This module
    computes the program side:

    - the window-limited data-flow IPC [ipc_of_window]: how fast the
      instructions could issue given only their true dependencies and a
      reorder window of [w] instructions (unbounded functional units,
      perfect caches and prediction);
    - event counts at a concrete configuration, gathered by functional
      (untimed) simulation of the caches and branch predictor. *)

type t
(** Precomputed dependency structure of one trace. *)

val analyse : Archpred_sim.Trace.t -> t
(** One pass over the trace; O(n) time and space. *)

val ipc_of_window : t -> exec_latency:(Archpred_sim.Opcode.t -> int) -> w:int -> float
(** Data-flow issue rate achievable with an in-order-fetch window of [w]
    instructions: the trace is scanned in consecutive windows, the
    data-flow critical path of each window sets its drain time, and the
    aggregate rate is instructions over summed drain times.  [exec_latency]
    gives each class's execution latency (memory classes should use the L1
    hit latency — misses are accounted separately as events). *)

type events = {
  branch_mispredicts : int;
  il1_misses : int;  (** instruction-fetch line misses that hit in L2 *)
  il1_to_memory : int;  (** instruction-fetch misses that go to DRAM *)
  dl1_misses : int;  (** load misses that hit in L2 *)
  dl1_to_memory : int;  (** load misses that go to DRAM *)
  load_count : int;
  memory_mlp : float;  (** average number of long (DRAM) load misses that
                           are simultaneously in flight within a window;
                           long-miss penalties are divided by this, the
                           model's overlap correction *)
}

val count_events : t -> Archpred_sim.Config.t -> events
(** Functional cache/predictor simulation at a configuration (with the
    same steady-state warm-up the timing simulator uses). *)
