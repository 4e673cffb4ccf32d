(** Table 5 — the most significant regression-tree splits for mcf and
    vortex: the first eight bifurcations (in significance order), each
    reported as (parameter, split value in natural units, tree depth).
    The paper's shape claim: mcf splits first on memory-system parameters
    (L2 latency, L1D latency, L2 size) while vortex splits on L1D latency,
    L1I size and issue-queue size. *)

val run : Context.t -> Format.formatter -> unit
