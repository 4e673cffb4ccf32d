(** LRU memoisation of predictions, keyed by quantized design points.

    The design space has finitely many levels per axis (Table 1), so
    on-grid points — which is what sampling plans, sweeps and realistic
    serving traffic produce — have exact small-integer keys: the level
    index per dimension.  The cache maps those keys to predicted
    responses with deterministic least-recently-used eviction.

    Bit-identity: a point is only cached when its coordinates are
    *bitwise* reproducible from the level grid (the canonical
    [k /. (l - 1)] form that {!Archpred_design.Parameter.snap}
    produces).  Anything else is a bypass: evaluated directly, never
    cached.  Cached and uncached predictions are therefore always
    bit-identical.

    Counters (hits / misses / evictions / bypasses) are tracked both in
    {!stats} and on the {!Archpred_obs} handle as [memo.hits],
    [memo.misses], [memo.evictions] and [memo.bypasses]. *)

type t

val create :
  ?obs:Archpred_obs.t ->
  capacity:int ->
  space:Archpred_design.Space.t ->
  sample_size:int ->
  unit ->
  t
(** A cache for points on the grid of [space] at [sample_size] levels
    per [Per_sample] axis (matching [Space.snap ~sample_size]).
    Raises [Invalid_argument] if [capacity < 1]. *)

val probe_batch :
  t ->
  Archpred_design.Space.point array ->
  out:float array ->
  miss:int array ->
  int
(** [probe_batch t points ~out ~miss] classifies a whole batch in one
    pass: hits write their cached value into [out] at the point's index
    (refreshing recency in stream order), and every non-hit (miss or
    bypass) records its index into [miss].  Returns the number of
    recorded indices.  Cacheable missed keys are retained internally for
    the next {!commit}; a subsequent [probe_batch] discards them.

    The probe allocates nothing on the hit path (one shared key
    scratch, batched counter updates) — this is what makes the cached
    serving path cheaper than re-running the kernel.  Raises
    [Invalid_argument] if [out] or [miss] is shorter than [points]. *)

val commit : t -> float array -> unit
(** [commit t values] inserts every cacheable miss recorded by the last
    {!probe_batch}, reading each value from [values] at the miss's
    original index, in stream order, evicting the least recently used
    entry when the cache is full.  Clears the pending set. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  bypasses : int;
  size : int;
  capacity : int;
}

val stats : t -> stats

val contents : t -> (int array * float) list
(** Entries in most-to-least recently used order, as (level indices,
    value) pairs — the observable recency order tests assert against. *)
