(** Latin hypercube sampling.

    The paper's variant (section 2.2): a sample of [n] points is built so
    that every parameter takes values covering all of its settings —
    each dimension's coordinates are a stratified cover of that
    parameter's level grid — and the per-dimension settings are combined by
    independent random permutations.

    With a parameter that has fewer levels than sample points (e.g. the
    4-level L1 cache sizes of Table 1), strata wrap around the level grid so
    every level appears equally often (±1). *)

val sample :
  Archpred_stats.Rng.t -> Space.t -> n:int -> Space.point array
(** [sample rng space ~n] draws an [n]-point latin hypercube over the
    space's level grids. Requires [n >= 2]. *)
