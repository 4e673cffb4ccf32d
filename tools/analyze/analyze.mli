(** [archpred-analyze]: typed analysis over [.cmt] artifacts, the one
    static analyzer of the repo.

    The paper's model is a pure function of its sample; parallel
    training and run-directory resume are tested bit-identical, and one
    stray [Random.self_init], polymorphic [compare] on a float-bearing
    value, or unordered [Hashtbl.iter] in a result path silently breaks
    that promise.  This engine loads the {b Typedtree} the compiler
    already produced under [_build], so every identifier is a resolved
    path, and runs two kinds of check.

    Three passes need cross-file knowledge and share one call graph:

    - {b domain-race} — top-level mutable state (refs, [Hashtbl],
      [Buffer], [Atomic], bigarrays, mutable record fields) that is
      transitively reachable {i and mutated} from a closure handed to
      [Stats.Parallel.{map,init,map_fallible}].  Per-domain
      observability counters and other deliberately concurrent state
      are declared in a sanctions registry
      ([tools/analyze/sanctions.sexp]) rather than silenced inline.
    - {b hot-alloc} — functions named in a declarative manifest
      ([tools/analyze/hotpaths.sexp]) are checked for allocation sites:
      closure creation, tuple/record/constructor/array literals,
      partial application, [ref] cells the compiler cannot unbox, and
      [@@]/[|>] indirection.
    - {b impure} — effect seeds (global [Random], wall clock, stdout,
      [Unix] networking) are propagated through the call graph, so a
      function is flagged where it uses an effect its scope bans, or
      where it reaches one {i through a helper in another file}.

    A fourth, {b dead-export}, reads every [lib/] interface (the [.cmi]
    beside the [.cmti] an [.mli] compiles to) and the values each unit
    names from its [.cmt], resolved through module aliases and includes: a value no other unit names is
    reported, and so is one that only [test/] names, unless the registry
    lists it as a [(test-hook Name "reason")].  [examples/] and
    [perfbench/] are loaded as users only: they keep a value alive but
    are never checked.

    The rest are file-local, one walk per unit: [poly-compare],
    [hashtbl-order], [exit], [unsafe-cast], [float-lit-eq],
    [catchall-exn] and [unsafe-index] flag resolved identifiers,
    equalities, patterns and handlers; [missing-mli] asks every [lib/]
    unit for a [.cmti].  {!rules} has the full table.

    Findings can be suppressed per site with a pragma comment on the
    finding's line or the line above:

    {v (* archpred-analyze: allow <rule> -- reason *) v}

    Unknown rules and missing reasons are reported ([bad-pragma]); a
    pragma that suppresses nothing is itself a finding
    ([unused-pragma]). *)

type finding = {
  rule : string;
  file : string;  (** repo-relative source path from the .cmt *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
}

(** Which top-level directory a file belongs to; decides which rules
    apply where (wall-clock reads are legal in [bench/], [exit] in
    [bin/]).  [Tools] covers the analyzer itself: determinism rules
    apply as in [Lib], while CLI conveniences (stdout, [exit]) stay
    legal as in [Bin]. *)
type scope = Lib | Bin | Bench | Test | Tools

val scope_of_rel : string -> scope option
(** Classify a repo-relative path ["lib/…"], ["bin/…"], ["bench/…"],
    ["test/…"], ["tools/…"]; [None] for anything else. *)

val rules : (string * string) list
(** [(id, one-line description)] for every rule, the pragma meta-rules
    last, in stable order (drives [--rules] and pragma validation). *)

(** {1 Registries} *)

type sanction_kind =
  | Race_barrier
      (** A function whose internal shared-state effects are an audited
          concurrency protocol (mutex-guarded registry, per-domain DLS
          buffers, atomic counters): the race pass does not look inside
          it and discards its mutation facts. *)
  | Race_global
      (** A named top-level mutable value that is sanctioned for
          concurrent mutation (e.g. process-wide [Atomic] totals). *)
  | Purity_barrier
      (** A function whose transitive effects are contained (timestamps
          that annotate a metrics stream, a daemon's socket loop): the
          purity pass stops effect propagation at it. *)
  | Test_hook
      (** A [lib/] export that only tests use (a SIMD cap, a reference
          oracle): dead-export accepts it, and reports the entry once a
          unit outside [test/] uses the value. *)

type sanction = { s_kind : sanction_kind; s_name : string; s_reason : string }

val parse_sanctions : path:string -> string -> sanction list
(** Parse registry source text ([(race-barrier Name "reason")] forms;
    [;] comments).  @raise Archpred_obs.Error.Archpred [Parse_error] on
    malformed input — unknown kind, missing name, empty reason. *)

val parse_hotpaths : path:string -> string -> string list
(** Parse the hot-path manifest ([(hot-path Name)] forms) into
    fully-qualified canonical function names. *)

val load_sanctions : path:string -> sanction list
val load_hotpaths : path:string -> string list

(** {1 Running} *)

val discover_cmts : root:string -> string list
(** All [.cmt] files for [lib/], [bin/], [bench/], [test/] and
    [tools/] units, and for the read-only users in [examples/] and
    [perfbench/], skipping [test/analyze_fixtures/], probing both
    [root/_build/default] and [root] itself (so the tool works from the
    repo root and from inside the build context).  Deterministic
    order.  @raise Archpred_obs.Error.Archpred [Invalid_input] naming the
    first [.ml] under [bin/], [bench/] or [test/] (fixtures excepted)
    that has no [.cmt]: a partial build would make every export only
    that unit uses read as dead. *)

val analyze :
  ?sanctions:sanction list ->
  ?hotpaths:string list ->
  ?rel_of:(string -> string) ->
  root:string ->
  cmt_paths:string list ->
  unit ->
  finding list
(** Load every [.cmt], build the call graph, run the passes and the
    file-local checks, then the pragma filter.  [root] anchors
    source-file resolution (stale-artifact detection: a cmt whose
    recorded source no longer exists under [root] is skipped).
    [sanctions]/[hotpaths] default to loading the registry files under
    [root/tools/analyze/]; every entry of either must name a top-level
    function or value of a loaded unit, and a test-hook entry a [lib/]
    export.  [rel_of] (default identity)
    maps a unit's recorded source path to the repo-relative path whose
    scope and module sanctions it is judged by; tests use it to place a
    fixture under [lib/].  Findings keep the recorded path and are
    sorted by (file, line, col, rule).

    @raise Archpred_obs.Error.Archpred [Invalid_input] if a registry
    entry names nothing, [Io_error] if a cmt or registry file cannot be
    read, [Parse_error] if a registry file is malformed. *)

val errors : finding list -> int

val to_json : finding -> Archpred_obs.Json.t
(** One finding as a JSON object ([event], [rule], [severity],
    [file], [line], [col], [message]). *)

val pp_finding : Format.formatter -> finding -> unit
(** Human rendering: [file:line:col: [rule] message]. *)
