(** Plain uniform-random designs.

    Two uses: the paper's *test* sets are "randomly and independently
    generated" points (section 3), and uniform random sampling is the
    baseline against which latin hypercube sampling is compared in the
    sampling ablation bench. *)

val sample_snapped :
  Archpred_stats.Rng.t -> Space.t -> n:int -> Space.point array
(** Uniform points snapped to each parameter's level grid (level grids
    sized as for a sample of [n]). *)

val sample_in_box :
  Archpred_stats.Rng.t ->
  Space.t ->
  n:int ->
  lo:Space.point ->
  hi:Space.point ->
  Space.point array
(** Uniform points inside the axis-aligned sub-box [\[lo, hi\]] of the unit
    cube — the Table 2 test region. *)
