(** The paper's 9-parameter microarchitectural design space.

    Table 1 defines the training space; Table 2 a narrower box inside it
    from which the 50 random test points are drawn.  Issue-queue and LSQ
    sizes are expressed as fractions of the ROB size (0.25–0.75 of ROB in
    Table 1, 0.31–0.69 in Table 2), so those two dimensions are ratios and
    the decoded configuration multiplies them out. *)

val space : Archpred_design.Space.t
(** The Table 1 space.  Dimension order (fixed, also the order of
    {!param_names}): pipe_depth, ROB_size, IQ_ratio, LSQ_ratio, L2_size,
    L2_lat, il1_size, dl1_size, dl1_lat. *)

val param_names : string array
(** The nine names, in dimension order. *)

val dim : int
(** 9. *)

val test_lo : Archpred_design.Space.point
val test_hi : Archpred_design.Space.point
(** Normalised corners of the Table 2 test box inside {!space}. *)

val to_config : Archpred_design.Space.point -> Archpred_sim.Config.t
(** Decode a normalised point into a simulator configuration: natural
    values are rounded, IQ/LSQ ratios are applied to the decoded ROB size,
    and cache sizes are rounded up to powers of two. *)

val test_points :
  Archpred_stats.Rng.t -> n:int -> Archpred_design.Space.point array
(** Independently random test points inside the Table 2 box (section 3:
    "fifty such design points within a more restricted parameter
    space"). *)
