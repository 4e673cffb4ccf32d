(** Stand-in profiles for the eight SPEC CPU2000 benchmarks of the paper.

    Table 3 of the paper evaluates six integer benchmarks (mcf, crafty,
    parser, perlbmk, vortex, twolf) and two floating-point ones (equake,
    ammp).  Each profile below is tuned so the synthetic trace stresses the
    same microarchitectural structures that characterise the real program
    (see DESIGN.md for the substitution argument):

    - [mcf] — pointer-chasing, huge data working set; dominated by L2/DRAM
      behaviour (the paper's tree splits first on L2 latency and size);
    - [crafty] — branchy integer code with a large code footprint and small
      data set;
    - [parser] — mixed integer workload, moderate memory pressure,
      moderately predictable branches;
    - [perlbmk] — large code footprint, many indirect jumps, stressing the
      L1I and BTB;
    - [vortex] — large code and data footprints, store-heavy; the paper's
      splits are on L1D latency, L1I size and IQ size;
    - [twolf] — pointer-heavy placement/routing loops in a medium working
      set with hard branches;
    - [equake] — FP streaming over a large mesh: high spatial locality,
      very predictable branches;
    - [ammp] — FP with a big, less regular working set and long FP
      dependency chains. *)

val mcf : Profile.t
val crafty : Profile.t
val parser : Profile.t
val vortex : Profile.t
val twolf : Profile.t
val equake : Profile.t

val all : Profile.t list
(** The eight profiles, in the paper's Table 3 order. *)
