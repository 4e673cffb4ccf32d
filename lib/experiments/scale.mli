(** Experiment scale.

    The full paper-sized reproduction simulates thousands of design points;
    the scale knob trades fidelity for wall-clock time so the whole harness
    can run in CI.  Chosen with [archpred reproduce --scale] ([small],
    [medium], [full]); the default is [medium]. *)

type t = Small | Medium | Full

val of_string : string -> t option
val to_string : t -> string

val trace_length : t -> int
(** Instructions per synthetic benchmark trace. *)

val table_sample_size : t -> int
(** Training-sample size for the fixed-size tables (the paper uses 200). *)

val sample_sizes : t -> int list
(** The sample-size sweep of Figure 4 / Table 4 (paper:
    30 50 70 90 110 200). *)

val test_points : t -> int
(** Number of random test points (the paper uses 50). *)

val lhs_candidates : t -> int
(** Candidate samples scored per latin hypercube selection. *)

val ablation_sample_size : t -> int
(** Training-sample size for the ablation benches.  Smaller than
    {!table_sample_size}: ablations compare strategies against each other
    (often over several replicates), not against the paper's numbers. *)
