(** A first-order analytical CPI model in the style of Karkhanis and Smith
    (ISCA 2004) — reference [11] of the paper, discussed in its section 5.

    The model decomposes CPI into a background term and additive miss-event
    penalties:

    {v CPI = CPI_base(W)                          background (data-flow
                                                   ILP within the window)
          + f_mispredict * (pipe_depth + resolve)  branch flushes
          + f_L1I-miss   * L2 latency (+ memory)   fetch stalls
          + f_load-miss  * exposed L2 latency      short data misses
          + f_long-miss  * exposed memory latency / MLP  long data misses v}

    where exposed latencies subtract the slack an out-of-order window can
    hide and MLP is the measured overlap of long misses.  Building the
    model requires only *functional* simulation (cache and predictor state,
    no timing) plus one dependency-analysis pass — this is exactly the
    trade-off the paper describes for theoretical models: cheap and
    mechanistically interpretable, but less accurate than fitted
    non-linear models, and needing new event counts at every configuration.

    The reproduction uses it as a second baseline next to the linear model
    of Figure 7 (see the [ablation_firstorder] bench). *)

type t
(** A model instance bound to one trace. *)

val create : Archpred_sim.Trace.t -> t

type breakdown = {
  base : float;  (** background CPI from window-limited data flow *)
  branch : float;  (** misprediction flush/refill CPI *)
  icache : float;  (** instruction-fetch miss CPI *)
  dcache_l2 : float;  (** exposed short (L2-hit) load-miss CPI *)
  dcache_memory : float;  (** exposed long (DRAM) load-miss CPI *)
}

val components : t -> Archpred_sim.Config.t -> breakdown
(** Per-mechanism CPI contributions at a configuration. *)

val cpi : t -> Archpred_sim.Config.t -> float
(** Total predicted CPI (the sum of the breakdown). *)
