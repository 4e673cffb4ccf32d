(** Shared state for a reproduction run.

    Simulation is the expensive resource; a context keeps one memoised
    simulator-backed response per benchmark and one set of test points
    (with their simulated responses) so that every experiment in a run
    reuses them — exactly as the paper reuses one 50-point test set across
    all evaluations. *)

type t

val create : ?seed:int -> scale:Scale.t -> ?obs:Archpred_obs.t -> unit -> t
(** [obs] (default {!Archpred_obs.null}) is threaded through every
    response and training call made via this context. *)

val scale : t -> Scale.t
val seed : t -> int

val obs : t -> Archpred_obs.t
(** The context's observability handle. *)

val config : t -> n:int -> Archpred_core.Config.t
(** The scale-appropriate training configuration for an [n]-point sample:
    a fresh rng split, the context's LHS-candidate count, trace length and
    observability handle. *)

val rng : t -> Archpred_stats.Rng.t
(** A fresh, independent stream split from the context's root seed. *)

val response : t -> Archpred_workloads.Profile.t -> Archpred_core.Response.t
(** The benchmark's memoised simulator response (created on first use). *)

val test_set :
  t ->
  Archpred_workloads.Profile.t ->
  Archpred_design.Space.point array * float array
(** The run's random test points (Table 2 box) and their simulated CPIs
    for a benchmark; points are shared across benchmarks, responses are
    per benchmark and cached. *)

val train :
  t -> Archpred_workloads.Profile.t -> n:int -> Archpred_core.Build.trained
(** Train an RBF model for a benchmark at a given sample size, with the
    context's scale-appropriate settings.  Results are cached per
    (benchmark, n). *)
