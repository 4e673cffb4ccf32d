(** The problem statement of a run directory.

    The coordinator writes [spec.json] into the run directory before the
    worker starts; a resumed run checks its own spec against it, and
    derives the {e same} configuration, response, and work plan from
    it.  Floats serialise as hex literals
    ({!Journal.float_to_hex_string}) so the round trip is bit-exact, and
    {!fingerprint} hashes the canonical serialisation:
    journals stamp the fingerprint in their headers, which prevents a
    run from mixing journals produced under a different spec into a
    merge. *)

type mode = Archpred_core.Pipeline.schedule =
  | Train  (** one fixed-size model ({!Archpred_core.Build.train}) *)
  | Accuracy of { sizes : int list; target_mean_pct : float }
      (** grow through [sizes] until the held-out mean error drops to
          [target_mean_pct] ({!Archpred_core.Build.build_to_accuracy}) *)

type t = {
  benchmark : string;
      (** workload name, or ["synthetic:smooth"] / ["synthetic:cliff"] *)
  metric : Archpred_core.Response.metric;
  seed : int;
  trace_length : int;
  sample_size : int;
  test_n : int;  (** held-out test points (drawn before training) *)
  lhs_candidates : int;
  criterion : Archpred_rbf.Criteria.t;
  p_min_grid : int list;
  alpha_grid : float list;
  shard_unit : int;
      (** indices per work unit ({!Plan.units} chunk): the
          [Config.sim_batch] of {!config} *)
  nested : bool;
      (** the nested size schedule ({!Archpred_core.Config.t.nested}) *)
  mode : mode;
}

val validate : t -> t
(** Check the invariants ([sample_size >= 2], [test_n >= 0], nonempty
    grids, accuracy mode needs sizes of at least 2 and test points, …).
    Raises [Archpred (Invalid_input _)]. *)

val to_json : t -> Archpred_obs.Json.t
(** Canonical serialisation — field order is fixed, so equal specs
    serialise to equal strings. *)

val fingerprint : t -> string
(** CRC32 (hex) of the canonical serialisation. *)

val save : dir:string -> t -> unit
(** Validate and atomically write [<dir>/spec.json] (tmp + rename). *)

val load : dir:string -> t
(** Read and validate [<dir>/spec.json].  Total over the file's bytes:
    any content gives a spec or a typed error — [Archpred (Io_error _)],
    [Archpred (Parse_error _)], or [Archpred (Invalid_input _)] for a
    well-formed spec that breaks an invariant; the last two name the
    file, [<dir>/spec.json], as their [where].  A spec whose
    ["version"] is not 2 is the [Parse_error] ["unsupported spec
    version"]: a version-1 spec predates the nested schedule's
    from-scratch tuning, and resuming it would give another model. *)

val config : ?obs:Archpred_obs.t -> t -> Archpred_core.Config.t
(** The {!Archpred_core.Config.t} a run derives from the
    spec (validated; [sim_batch] is [shard_unit], and [domains] is left
    at the library default). *)

val response : ?obs:Archpred_obs.t -> t -> Archpred_core.Response.t
(** The response surface named by [benchmark] — a synthetic surface or a
    simulator-backed workload metric.  Raises [Archpred (Invalid_input _)]
    on an unknown benchmark name. *)

val pipeline :
  ?obs:Archpred_obs.t -> ?domains:int -> t -> Archpred_core.Pipeline.t
(** The build a run directory runs: {!config} on [domains] (default
    1), {!response}, the paper space, and the root generator of [seed]
    after it has drawn the [test_n] held-out test points.  Raises
    [Archpred (Invalid_input _)] on an invalid spec. *)
