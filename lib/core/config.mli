(** Model-construction configuration.

    One record gathers everything the training pipeline used to take as
    spread optional arguments: reproducibility (seed / explicit
    generator), sample size, simulated trace length, domain count, the
    tuning grids, and the observability handle.  Build a value by piping
    setters from {!default}:

    {[
      Config.default
      |> Config.with_seed 7
      |> Config.with_sample_size 60
      |> Config.with_obs obs
    ]}

    The record is immutable; every [with_*] returns an updated copy, so a
    base configuration can be shared and specialised per run. *)

type t = {
  seed : int;  (** root seed; ignored when [rng] is set *)
  rng : Archpred_stats.Rng.t option;
      (** explicit (stateful) generator; lets several calls share one
          stream, e.g. across the sizes of [build_to_accuracy] *)
  sample_size : int;  (** training sample size [n] *)
  trace_length : int;  (** instructions per simulated trace *)
  domains : int option;  (** worker domains; [None] = library default *)
  criterion : Archpred_rbf.Criteria.t;  (** model-selection criterion *)
  p_min_grid : int list;  (** tuning grid for the leaf size *)
  alpha_grid : float list;  (** tuning grid for the radius scale *)
  lhs_candidates : int;  (** latin hypercube candidates scored *)
  obs : Archpred_obs.t;  (** observability handle; {!Archpred_obs.null} off *)
  task_retries : int;
      (** per-simulation-task retry budget in the fallible stages
          (default 1); deterministic, so the set of permanently failing
          points is independent of the domain count *)
  sim_batch : int;
      (** indices per unit of work of every training stage ({!Pipeline}):
          design points per {!Archpred_sim.Batch} fan-out when the
          response carries a batched evaluator, and the journaled unit
          of a run directory ({!Archpred_shard}).  Default 16: a unit is
          one simulator fan-out, and a unit's commit stays a small share
          of its cost.  [1] forces the pointwise reference
          path *)
  nested : bool;
      (** [build_to_accuracy] only: grow one nested sample across the size
          schedule, simulating only the rows new at each size, and tune
          each prefix from scratch, instead of redrawing the sample at
          each size step.  Off (the default) preserves the paper's
          independent-sample procedure bit for bit. *)
}

val default : t
(** Seed 42, 30-point samples, 100k-instruction traces, library-default
    domains, AICc, the paper's tuning grids, 100 LHS candidates, and
    observability off. *)

val with_seed : int -> t -> t
(** Also clears any explicit [rng], so the seed takes effect. *)

val with_rng : Archpred_stats.Rng.t -> t -> t
val with_sample_size : int -> t -> t
val with_trace_length : int -> t -> t
val with_domains : int -> t -> t
val with_criterion : Archpred_rbf.Criteria.t -> t -> t
val with_p_min_grid : int list -> t -> t
val with_alpha_grid : float list -> t -> t
val with_lhs_candidates : int -> t -> t
val with_obs : Archpred_obs.t -> t -> t

val with_sim_batch : int -> t -> t
(** Unit size of the training stages; the model is bit-identical at
    any value. *)

val with_nested : bool -> t -> t
(** The nested size schedule of [build_to_accuracy]; see {!t.nested}. *)

val rng_of : t -> Archpred_stats.Rng.t
(** The explicit generator when set, otherwise a fresh one from [seed].
    Note the result is stateful: call once per logical stream. *)

val validate : t -> t
(** Returns the configuration unchanged, or raises
    [Archpred (Invalid_input _)] naming the offending field. *)
