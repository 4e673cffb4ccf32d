(** Parallel array operations over a persistent pool of OCaml 5 domains.

    Model building needs hundreds of independent simulator runs, candidate
    scores and grid cells per experiment; each unit is pure (its inputs are
    immutable traces, samples and configurations), so they parallelise
    trivially.  The worker domains are spawned once, on first use, and
    sleep between parallel sections — issuing thousands of small sections
    costs queueing, not domain spawns.  The caller participates in every
    section it submits, so nested sections cannot deadlock and a
    single-domain machine degrades to plain loops. *)

val env_domains : unit -> int option
(** The [ARCHPRED_DOMAINS] environment variable, when set to a positive
    integer.  Consulted by {!default_domains}; exposed so executables can
    report or thread the setting explicitly.  This is the single parsing
    point for the variable: a set-but-invalid value (non-integer, zero or
    negative) raises [Archpred_obs.Error.Archpred (Invalid_env _)] instead
    of being silently ignored. *)

val default_domains : unit -> int
(** Number of domains used when [domains] is not given: [ARCHPRED_DOMAINS]
    if set, otherwise the recommended domain count for this machine capped
    at 8. *)

val queue_depth : unit -> int
(** Number of tasks currently queued in the worker pool (0 when the pool
    has never been started; reading never spawns domains).  A sampling
    probe for observability gauges. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f xs] evaluates [f] on every element across up to [domains]
    domains.  Each participating domain, the caller included, claims the
    next unclaimed index from one shared counter until none is left, so
    elements of uneven cost keep every domain busy; no element is
    evaluated before the work is handed out.  [f] must be safe to run
    concurrently (no shared mutable state).  Results are in input order
    and independent of the domain count.  With [domains <= 1] the
    evaluation is a plain left-to-right loop that stops at the first
    exception.  If applications raise, the exception re-raised is the
    one at the lowest failing index, at every domain count. *)

val init : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [init n f] is [map f [|0; ...; n-1|]] without materialising the index
    array.  With [domains <= 1] the indices are evaluated left to
    right. *)

exception Deadline_exceeded of { elapsed : float; deadline : float }
(** The failure recorded when a task attempt outlives its wall-clock
    budget (see {!map_fallible}; the check is cooperative — OCaml tasks
    cannot be preempted, so the attempt is failed when it returns). *)

val retries_total : unit -> int
(** Process-wide count of task attempts that were retried by
    {!map_fallible} since startup.  Callers that own an observability
    handle record the per-stage delta as a counter. *)

val failed_total : unit -> int
(** Process-wide count of tasks whose whole retry budget was exhausted
    (one [Error] slot each). *)

val map_fallible :
  ?domains:int ->
  ?retries:int ->
  ?deadline:float ->
  ('a -> 'b) ->
  'a array ->
  ('b, exn) result array
(** [map_fallible f xs] is {!map} with per-element fault isolation: an
    element whose applications raise is retried up to [retries] times
    (default 0) and then captured as [Error] in its slot instead of
    poisoning the whole section — every other element still completes.
    [deadline] (seconds of wall clock) fails attempts that run longer,
    with {!Deadline_exceeded} as the captured exception.  The retry
    budget is a deterministic per-element constant, so for an [f] that
    fails deterministically the [Ok]/[Error] shape of the result is
    identical at every domain count.  Each attempt marks the
    ["pool.task"] fault-injection site ({!Archpred_fault.Fault}); the
    {!retries_total} / {!failed_total} counters advance accordingly. *)

val map_reduce :
  ?domains:int ->
  map:('a -> 'b) ->
  combine:('b -> 'b -> 'b) ->
  'a array ->
  'b
(** [map_reduce ~map ~combine xs] folds [combine] over [map x] for every
    element.  Each task reduces a contiguous chunk left-to-right and the
    partials are combined in chunk order, so the result is deterministic
    for a fixed domain count — but, for non-associative operations such as
    float addition, may differ across domain counts.  Raises
    [Invalid_argument] on the empty array. *)
