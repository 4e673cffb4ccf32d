(* Golden tests for archpred-analyze (tools/analyze): each of the
   three interprocedural passes is exercised against the seeded
   fixture library in test/analyze_fixtures/ — detection of a real
   violation, acceptance of the sanctioned / pragma'd variant — and
   every file-local rule and retired effect rule against one fixture
   each in test/analyze_fixtures/rules/, placed in each scope, and
   dead-export against an exporter and a user placed apart.  Then
   the registry parsers, the pragma meta-rules, Core.Error exit codes
   and the JSON record shape.  The "real tree analyzes clean" half of
   the contract lives in the root dune file: the @analyze alias is
   attached to runtest.

   The fixtures are compiled as ordinary dune libraries; the test
   points the engine directly at their .cmt artifacts inside the build
   tree (tests run with cwd = _build/default/test). *)

module Analyze = Analyze_engine.Analyze
module Error = Archpred_obs.Error
module Json = Archpred_obs.Json

let cmts_in dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cmt")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let fixture_cmts = cmts_in "analyze_fixtures/.analyze_fixtures.objs/byte"

(* Hermetic runs: registries are always passed explicitly so the
   repo's own sanctions.sexp/hotpaths.sexp cannot leak in. *)
let run ?(sanctions = []) ?(hotpaths = []) ?rel_of () =
  Analyze.analyze ~sanctions ~hotpaths ?rel_of ~root:".."
    ~cmt_paths:fixture_cmts ()

let by_rule rule findings =
  List.filter (fun f -> f.Analyze.rule = rule) findings

let in_file file findings =
  List.for_all (fun f -> f.Analyze.file = file) findings

let fx file = "test/analyze_fixtures/" ^ file

let test_fixtures_compiled () =
  Alcotest.(check bool)
    "fixture cmts discovered" true
    (List.length fixture_cmts >= 5)

(* --- domain-race --- *)

(* fx_race.ml seeds three races: a direct top-level mutation inside
   the parallel closure, one reached through Fx_state.record (reported
   once per reachable global — counter and table — so two findings at
   that call site), and a captured-local mutation. *)

let races fs = by_rule "domain-race" fs

let test_race_detected () =
  let fs = races (run ()) in
  Alcotest.(check int) "four race findings" 4 (List.length fs);
  Alcotest.(check bool)
    "all at the parallel entry's closures" true
    (in_file (fx "fx_race.ml") fs)

let barrier name reason =
  { Analyze.s_kind = Analyze.Race_barrier; s_name = name; s_reason = reason }

let test_race_sanctioned () =
  (* Blessing the audited helper removes exactly the transitive
     finding; deleting this entry from a registry resurfaces it (the
     3-vs-2 difference is the acceptance criterion for sanction
     hygiene). *)
  let sanctions =
    [ barrier "Analyze_fixtures.Fx_state.record" "fixture: audited helper" ]
  in
  let fs = races (run ~sanctions ()) in
  Alcotest.(check int) "record blessed, two races remain" 2 (List.length fs)

let test_race_global_sanctioned () =
  (* Declaring the state itself concurrency-safe silences both the
     direct mutation and the one through [record]; the captured-local
     race is not nameable state and must survive. *)
  let g name =
    { Analyze.s_kind = Analyze.Race_global;
      s_name = name;
      s_reason = "fixture: per-domain totals";
    }
  in
  let sanctions =
    [ g "Analyze_fixtures.Fx_state.counter";
      g "Analyze_fixtures.Fx_state.table";
    ]
  in
  let fs = races (run ~sanctions ()) in
  Alcotest.(check int) "only the captured-local race is left" 1
    (List.length fs)

(* --- hot-alloc --- *)

let hot name = "Analyze_fixtures.Fx_alloc." ^ name
let allocs fs = by_rule "hot-alloc" fs

let test_alloc_detected () =
  match allocs (run ~hotpaths:[ hot "hot_pair" ] ()) with
  | [ f ] ->
      Alcotest.(check string) "boxing flagged in the fixture"
        (fx "fx_alloc.ml") f.Analyze.file
  | fs -> Alcotest.failf "expected one hot-alloc, got %d" (List.length fs)

let test_alloc_unboxed_ref_ok () =
  Alcotest.(check int) "compiler-unboxable ref accepted" 0
    (List.length (allocs (run ~hotpaths:[ hot "cool_add" ] ())))

let test_alloc_pragma () =
  let fs = run ~hotpaths:[ hot "hot_allowed" ] () in
  Alcotest.(check int) "pragma suppresses the boxing" 0
    (List.length (allocs fs));
  Alcotest.(check int) "and the pragma counts as used" 0
    (List.length (by_rule "unused-pragma" fs))

let test_stale_sanction () =
  (* The same loud failure for a sanction left behind by a rename. *)
  let sanctions =
    [ barrier "Analyze_fixtures.Fx_state.renamed" "fixture: stale entry" ]
  in
  match run ~sanctions () with
  | _ -> Alcotest.fail "expected Invalid_input for a stale sanction"
  | exception Error.Archpred e ->
      Alcotest.(check int) "stale sanction maps to exit 2" 2 (Error.exit_code e)

let test_unknown_hotpath () =
  (* A manifest entry that names nothing is a loud failure — renames
     cannot silently drop coverage. *)
  match run ~hotpaths:[ hot "does_not_exist" ] () with
  | _ -> Alcotest.fail "expected Invalid_input for unknown hot-path"
  | exception Error.Archpred e ->
      Alcotest.(check int) "unknown hot-path maps to exit 2" 2
        (Error.exit_code e)

(* --- impure --- *)

(* Move the seed unit out of every scope so the single finding must be
   the transitive crossing in the caller. *)
let rescope_clock rel =
  if Filename.basename rel = "fx_clock.ml" then "elsewhere/fx_clock.ml"
  else rel

let impures fs = by_rule "impure" fs

let test_purity_transitive () =
  match impures (run ~rel_of:rescope_clock ()) with
  | [ f ] ->
      Alcotest.(check string) "flagged at the crossing, not the seed"
        (fx "fx_purity.ml") f.Analyze.file
  | fs -> Alcotest.failf "expected one impure finding, got %d"
            (List.length fs)

let test_purity_frontier () =
  (* With the default scoping both units are banned: the seed is
     reported where the clock is read, and the caller is NOT
     double-reported (its callee already carries the finding). *)
  match impures (run ()) with
  | [ f ] ->
      Alcotest.(check string) "one finding, at the seed" (fx "fx_clock.ml")
        f.Analyze.file
  | fs -> Alcotest.failf "expected one impure finding, got %d"
            (List.length fs)

let test_purity_barrier () =
  let sanctions =
    [ { Analyze.s_kind = Analyze.Purity_barrier;
        s_name = "Analyze_fixtures.Fx_clock.now";
        s_reason = "fixture: contained timestamp";
      } ]
  in
  Alcotest.(check int) "barrier stops effect propagation" 0
    (List.length (impures (run ~rel_of:rescope_clock ~sanctions ())))

(* --- file-local rules and the retired effect rules --- *)

(* A rule fixture is placed at a chosen repo-relative path, which
   decides its scope and module sanctions.  A finding is named by its
   site: the name the [let] on its line binds, or "line N". *)
let rules_dir = "analyze_fixtures/rules"
let rule_cmts = cmts_in (rules_dir ^ "/.rule_fixtures.objs/byte")

let site file line =
  let src =
    In_channel.with_open_bin (Filename.concat rules_dir file)
      In_channel.input_all
  in
  match
    String.split_on_char ' '
      (String.trim (List.nth (String.split_on_char '\n' src) (line - 1)))
  with
  | "let" :: name :: _ -> name
  | _ -> "line " ^ string_of_int line

(* The findings in rule fixture [file] placed at [rel].  The fixtures
   carry no interfaces, so missing-mli is left out unless [mli] asks
   for it. *)
let findings_at ?(mli = false) ~rel file =
  let path = "test/" ^ rules_dir ^ "/" ^ file in
  Analyze.analyze ~sanctions:[] ~hotpaths:[]
    ~rel_of:(fun f -> if f = path then rel else f)
    ~root:".." ~cmt_paths:rule_cmts ()
  |> List.filter (fun f ->
         f.Analyze.file = path && (mli || f.Analyze.rule <> "missing-mli"))

let flagged ?mli ~rel file =
  List.map
    (fun f -> (f.Analyze.rule, site file f.Analyze.line))
    (findings_at ?mli ~rel file)

let sites = Alcotest.(list (pair string string))
let dirs = [ "lib"; "bin"; "bench"; "test"; "tools" ]
let each rule = List.map (fun s -> (rule, s))

(* Per rule: its fixture, the top-level directories it applies in, and
   the sites flagged there.  The last four rules are retired into
   impure, which flags the same identifiers in the same scopes. *)
let rule_table =
  [
    ( "poly-compare", "fx_poly_compare.ml", [ "lib"; "bench"; "tools" ],
      each "poly-compare" [ "sort"; "qualified" ] );
    ( "hashtbl-order", "fx_hashtbl_order.ml", [ "lib"; "bench"; "tools" ],
      each "hashtbl-order" [ "visit"; "total"; "keys" ] );
    ("exit", "fx_exit.ml", [ "lib"; "bench"; "test" ], each "exit" [ "quit"; "qualified" ]);
    ("unsafe-cast", "fx_unsafe_cast.ml", dirs, each "unsafe-cast" [ "cast"; "freeze" ]);
    ( "float-lit-eq", "fx_float_lit_eq.ml", dirs,
      each "float-lit-eq" [ "half"; "negated"; "one" ] );
    ( "catchall-exn", "fx_catchall_exn.ml", dirs,
      each "catchall-exn" [ "swallow"; "named"; "exception_any" ] );
    ( "unsafe-index", "fx_unsafe_index.ml", [ "lib" ],
      each "unsafe-index" [ "get1"; "set2"; "byte"; "fget" ] );
    ("missing-mli", "fx_missing_mli.ml", [ "lib" ], [ ("missing-mli", "line 1") ]);
    ( "random-global", "fx_random_global.ml", dirs,
      each "impure" [ "draw"; "coin"; "roll"; "flip" ] );
    ( "wall-clock", "fx_wall_clock.ml", [ "lib"; "bin"; "test"; "tools" ],
      each "impure" [ "stamp"; "cpu" ] );
    ("stdout-print", "fx_stdout_print.ml", [ "lib" ], each "impure" [ "()"; "say" ]);
    ( "unix-net", "fx_unix_net.ml", [ "lib" ],
      each "impure" [ "open_socket"; "poll"; "pull" ] );
  ]

let test_rule_detected (rule, file, _, expected) () =
  Alcotest.check sites (rule ^ " flagged in lib/") expected
    (flagged ~mli:(rule = "missing-mli") ~rel:("lib/" ^ file) file)

(* fx_allowed.ml holds one pragma'd twin per rule; in lib/ every rule
   applies, so each pragma must be used and its site silent. *)
let test_rule_suppressed (rule, _, _, expected) () =
  let reported = fst (List.hd expected) in
  Alcotest.check sites ("pragma suppresses " ^ rule) []
    (List.filter
       (fun (r, _) -> r = reported || r = "unused-pragma")
       (flagged ~mli:true ~rel:"lib/fx_allowed.ml" "fx_allowed.ml"))

let test_scope_gating () =
  List.iter
    (fun (rule, file, scopes, expected) ->
      List.iter
        (fun dir ->
          let rel = dir ^ "/" ^ file in
          Alcotest.check sites (rule ^ " at " ^ rel)
            (if List.mem dir scopes then expected else [])
            (flagged ~mli:(rule = "missing-mli") ~rel file))
        dirs)
    rule_table

let test_clean_file () =
  List.iter
    (fun dir ->
      Alcotest.check sites ("clean in " ^ dir ^ "/") []
        (flagged ~mli:true ~rel:(dir ^ "/fx_clean.ml") "fx_clean.ml"))
    dirs

let test_mli_present () =
  Alcotest.check sites "lib/ unit with an .mli passes" []
    (List.filter
       (fun (r, _) -> r = "missing-mli")
       (flagged ~mli:true ~rel:"lib/fx_clean.ml" "fx_clean.ml"))

let test_sanctioned_module () =
  Alcotest.check sites "Stats.Rng may touch Random" []
    (flagged ~rel:"lib/stats/rng.ml" "fx_random_global.ml")

let test_unix_net () =
  let daemon = "lib/serve_net/daemon.ml" in
  Alcotest.check sites "serve_net may use sockets" []
    (flagged ~rel:daemon "fx_unix_net.ml");
  Alcotest.check sites "serve_net may read the wall clock" []
    (flagged ~rel:daemon "fx_wall_clock.ml");
  Alcotest.check sites "lib/core may not; fsync is not networking"
    (each "impure" [ "open_socket"; "poll"; "pull" ])
    (flagged ~rel:"lib/core/serve.ml" "fx_unix_net.ml")

let test_unsafe_index () =
  let at rel = flagged ~rel "fx_unsafe_index.ml" in
  let unchecked = each "unsafe-index" [ "get1"; "set2"; "byte"; "fget" ] in
  Alcotest.check sites "plain Array.unsafe_get is not this rule" unchecked
    (at "lib/fx_unsafe_index.ml");
  Alcotest.check sites "batch kernel may skip bounds checks" []
    (at "lib/rbf/batch_kernel.ml");
  Alcotest.check sites "memo may skip bounds checks" [] (at "lib/core/memo.ml");
  Alcotest.check sites "sim batch is not sanctioned" unchecked
    (at "lib/sim/batch.ml")

let test_reraise_not_flagged () =
  let fs = flagged ~rel:"lib/fx_catchall_exn.ml" "fx_catchall_exn.ml" in
  Alcotest.(check bool) "re-raising handler is fine" false
    (List.mem ("catchall-exn", "reraise") fs);
  Alcotest.(check bool) "named swallower still flagged" true
    (List.mem ("catchall-exn", "named") fs)

let test_float_pattern () =
  match
    List.filter
      (fun f -> site "fx_float_lit_eq.ml" f.Analyze.line = "one")
      (findings_at ~rel:"lib/fx_float_lit_eq.ml" "fx_float_lit_eq.ml")
  with
  | [ f ] ->
      Alcotest.(check string) "float pattern flagged"
        "float literal in a pattern matches by exact equality" f.Analyze.message
  | fs -> Alcotest.failf "expected one finding at `one`, got %d" (List.length fs)

let test_stdlib_qualified () =
  Alcotest.(check bool) "Stdlib.exit is still exit" true
    (List.mem ("exit", "qualified") (flagged ~rel:"lib/fx_exit.ml" "fx_exit.ml"));
  Alcotest.(check bool) "Stdlib.compare is still compare" true
    (List.mem ("poly-compare", "qualified")
       (flagged ~rel:"lib/fx_poly_compare.ml" "fx_poly_compare.ml"))

let test_pragma_same_line () =
  Alcotest.check sites "same-line pragma works" []
    (List.filter
       (fun (_, s) -> s = "same_line")
       (flagged ~rel:"lib/fx_pragmas.ml" "fx_pragmas.ml"))

(* --- dead-export --- *)

(* fx_export.mli declares used, hook and dead; fx_export_user.ml names
   used directly and hook through a module alias.  The exporter sits in
   lib/ and the user at [user]; the result is the names reported in the
   interface, in declaration order, with their messages. *)
let dead_exports ?(sanctions = []) ~user () =
  let dir = "test/" ^ rules_dir ^ "/" in
  let place f =
    if f = dir ^ "fx_export.ml" then "lib/fx_export.ml"
    else if f = dir ^ "fx_export_user.ml" then user
    else f
  in
  let mli =
    In_channel.with_open_bin (rules_dir ^ "/fx_export.mli") In_channel.input_all
    |> String.split_on_char '\n'
  in
  let name line =
    match String.split_on_char ' ' (List.nth mli (line - 1)) with
    | "val" :: n :: _ -> n
    | _ -> "line " ^ string_of_int line
  in
  Analyze.analyze ~sanctions ~hotpaths:[] ~rel_of:place ~root:".."
    ~cmt_paths:rule_cmts ()
  |> List.filter (fun f -> f.Analyze.file = dir ^ "fx_export.mli")
  |> List.map (fun f -> (name f.Analyze.line, f.Analyze.message))

let hook_entry name =
  { Analyze.s_kind = Analyze.Test_hook;
    s_name = "Rule_fixtures.Fx_export." ^ name;
    s_reason = "fixture: test hook";
  }

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let names = List.map fst

let test_dead_export_reported () =
  match dead_exports ~user:"lib/fx_export_user.ml" () with
  | [ ("dead", msg) ] ->
      Alcotest.(check bool) "says nothing uses it" true
        (contains ~sub:"no other unit uses it" msg)
  | fs ->
      Alcotest.failf "expected only `dead`, got [%s]"
        (String.concat "; " (names fs))

let test_test_only_reported () =
  let fs = dead_exports ~user:"test/fx_export_user.ml" () in
  Alcotest.(check (list string)) "test-only values are dead too"
    [ "used"; "hook"; "dead" ] (names fs);
  Alcotest.(check bool) "says only tests use it" true
    (contains ~sub:"used only by test/" (List.assoc "used" fs))

let test_test_hook_suppresses () =
  Alcotest.(check (list string)) "the sanctioned hook is accepted"
    [ "used"; "dead" ]
    (names
       (dead_exports ~sanctions:[ hook_entry "hook" ]
          ~user:"test/fx_export_user.ml" ()))

let test_test_hook_stale () =
  let fs =
    dead_exports ~sanctions:[ hook_entry "hook" ] ~user:"lib/fx_export_user.ml" ()
  in
  Alcotest.(check (list string)) "a hook used outside test/ is a finding"
    [ "hook"; "dead" ] (names fs);
  Alcotest.(check bool) "names the entry" true
    (contains ~sub:"has a test-hook entry" (List.assoc "hook" fs));
  match dead_exports ~sanctions:[ hook_entry "renamed" ] ~user:"test/u.ml" () with
  | _ -> Alcotest.fail "expected Invalid_input for a hook naming no export"
  | exception Error.Archpred e ->
      Alcotest.(check int) "unknown hook maps to exit 2" 2 (Error.exit_code e)

let test_read_only_users () =
  List.iter
    (fun user ->
      Alcotest.(check (list string)) (user ^ " keeps its values alive") [ "dead" ]
        (names (dead_exports ~user ())))
    [ "examples/fx_export_user.ml"; "perfbench/fx_export_user.ml" ]

(* --- partial builds --- *)

(* A plain [dune build] leaves executables' .cmt unbuilt, and a sweep
   without them would read the exports only they use as dead, so
   discovery refuses it and names the first unbuilt unit. *)
let test_partial_build_refused () =
  let root = Filename.temp_file "archpred_analyze" "" in
  Sys.remove root;
  let byte = "_build/default/bin/.x.eobjs/byte" in
  let dirs =
    List.map (Filename.concat root)
      [ "bin"; "_build"; "_build/default"; "_build/default/bin";
        "_build/default/bin/.x.eobjs"; byte ]
  in
  let ml = Filename.concat root "bin/x.ml"
  and cmt = Filename.concat root (byte ^ "/dune__exe__X.cmt") in
  let touch path = Out_channel.with_open_text path ignore in
  Sys.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ ml; cmt ];
      List.iter
        (fun d -> if Sys.file_exists d then Sys.rmdir d)
        (List.rev dirs);
      Sys.rmdir root)
    (fun () ->
      Sys.mkdir (List.hd dirs) 0o755;
      touch ml;
      (match Analyze.discover_cmts ~root with
      | _ -> Alcotest.fail "expected Invalid_input for a unit without a .cmt"
      | exception Error.Archpred (Error.Invalid_input _ as e) ->
          let msg = Error.to_string e in
          Alcotest.(check bool) "names the unit" true
            (contains ~sub:"bin/x.ml" msg);
          Alcotest.(check bool) "says how to build it" true
            (contains ~sub:"dune build @check" msg));
      List.iter (fun d -> Sys.mkdir d 0o755) (List.tl dirs);
      touch cmt;
      Alcotest.(check (list string)) "the executable's .cmt completes it"
        [ cmt ] (Analyze.discover_cmts ~root))

(* --- pragma meta-rules --- *)

let test_unused_pragma () =
  (* With hot_allowed absent from the manifest its pragma suppresses
     nothing and is itself a finding. *)
  let fs = by_rule "unused-pragma" (run ()) in
  Alcotest.(check bool) "stale pragma flagged" true
    (List.exists (fun f -> f.Analyze.file = fx "fx_alloc.ml") fs);
  (* exit is legal in bin/, so its pragma there suppresses nothing *)
  Alcotest.(check bool) "pragma for a rule out of scope flagged" true
    (List.exists
       (fun f ->
         f.Analyze.rule = "unused-pragma"
         && f.Analyze.message = "pragma allows `exit` but suppressed nothing")
       (findings_at ~rel:"bin/fx_allowed.ml" "fx_allowed.ml"))

let test_bad_pragma () =
  let fs = by_rule "bad-pragma" (run ()) in
  Alcotest.(check bool) "reason is mandatory" true
    (List.exists (fun f -> f.Analyze.file = fx "fx_alloc.ml") fs);
  Alcotest.check sites "unknown rule and missing reason rejected"
    [ ("bad-pragma", "line 1"); ("bad-pragma", "line 3"); ("exit", "no_reason") ]
    (flagged ~rel:"lib/fx_pragmas.ml" "fx_pragmas.ml")

(* --- registries --- *)

let test_parse_sanctions () =
  let src =
    "; registry comment\n\
     (race-barrier Obs.count \"per-domain buffers\")\n\
     (race-global Stats.Parallel.retries_total \"atomic totals\")\n\
     (purity-barrier Serve_net.Daemon.run \"socket loop\")\n"
  in
  match Analyze.parse_sanctions ~path:"sanctions.sexp" src with
  | [ a; b; c ] ->
      Alcotest.(check bool) "kinds" true
        (a.Analyze.s_kind = Analyze.Race_barrier
        && b.Analyze.s_kind = Analyze.Race_global
        && c.Analyze.s_kind = Analyze.Purity_barrier);
      Alcotest.(check string) "name" "Stats.Parallel.retries_total"
        b.Analyze.s_name
  | ss -> Alcotest.failf "expected three sanctions, got %d" (List.length ss)

let test_parse_sanctions_rejects () =
  let expect_parse_error what src =
    match Analyze.parse_sanctions ~path:"sanctions.sexp" src with
    | _ -> Alcotest.fail ("expected Parse_error: " ^ what)
    | exception Error.Archpred e ->
        Alcotest.(check int) (what ^ " maps to exit 5") 5 (Error.exit_code e)
  in
  expect_parse_error "empty reason" "(race-barrier Obs.count \"\")";
  expect_parse_error "unknown kind" "(frobnicate Obs.count \"why\")";
  expect_parse_error "missing name" "(race-barrier)"

let test_parse_hotpaths () =
  let paths =
    Analyze.parse_hotpaths ~path:"hotpaths.sexp"
      "; manifest\n(hot-path Rbf.Batch_kernel.eval_into)\n(hot-path Core.Memo.commit)\n"
  in
  Alcotest.(check (list string)) "manifest parses"
    [ "Rbf.Batch_kernel.eval_into"; "Core.Memo.commit" ]
    paths

(* --- rule table, severities, exit codes, JSON --- *)

let test_rule_table () =
  Alcotest.(check int) "fourteen rules" 14 (List.length Analyze.rules);
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " is documented") true
        (List.mem_assoc rule Analyze.rules))
    [
      "domain-race"; "hot-alloc"; "impure"; "poly-compare"; "hashtbl-order";
      "exit"; "unsafe-cast"; "float-lit-eq"; "catchall-exn"; "unsafe-index";
      "missing-mli"; "dead-export"; "unused-pragma"; "bad-pragma";
    ];
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " is retired into impure") false
        (List.mem_assoc rule Analyze.rules))
    [ "random-global"; "wall-clock"; "stdout-print"; "unix-net" ]

let test_every_finding_is_an_error () =
  let fs = run ~hotpaths:[ hot "hot_pair" ] () in
  Alcotest.(check int) "errors = findings" (List.length fs)
    (Analyze.errors fs)

let test_violation_exit_code () =
  let e =
    Error.Invalid_input { where = "archpred_analyze"; what = "findings" }
  in
  Alcotest.(check int) "findings map to exit 2" 2 (Error.exit_code e)

let test_scope_classification () =
  let is rel expect = Analyze.scope_of_rel rel = expect in
  Alcotest.(check bool) "paths classify" true
    (is "lib/rbf/network.ml" (Some Analyze.Lib)
    && is "bin/predict.ml" (Some Analyze.Bin)
    && is "tools/analyze/analyze.ml" (Some Analyze.Tools)
    && is "test/analyze_fixtures/fx_race.ml" (Some Analyze.Test)
    && is "README.md" None)

let test_json_shape () =
  match allocs (run ~hotpaths:[ hot "hot_pair" ] ()) with
  | [ f ] ->
      let j = Analyze.to_json f in
      let str k =
        match Json.member k j with Some (Json.String s) -> s | _ -> "?"
      in
      let int k =
        match Json.member k j with Some (Json.Int i) -> i | _ -> -1
      in
      Alcotest.(check string) "event" "finding" (str "event");
      Alcotest.(check string) "rule" "hot-alloc" (str "rule");
      Alcotest.(check string) "severity" "error" (str "severity");
      Alcotest.(check string) "file" (fx "fx_alloc.ml") (str "file");
      Alcotest.(check bool) "line is 1-based" true (int "line" >= 1);
      (match Json.of_string (Json.to_string j) with
      | Ok j' -> Alcotest.(check bool) "round-trips" true (j = j')
      | Result.Error m -> Alcotest.fail ("did not re-parse: " ^ m));
      (* a file-local finding has the same shape *)
      let fs = findings_at ~rel:"lib/fx_exit.ml" "fx_exit.ml" in
      let j = Analyze.to_json (List.hd fs) in
      Alcotest.(check bool) "file-local finding" true
        (Json.member "rule" j = Some (Json.String "exit")
        && Json.member "line" j = Some (Json.Int (List.hd fs).Analyze.line))
  | fs -> Alcotest.failf "expected exactly one finding, got %d"
            (List.length fs)

let () =
  let per_rule =
    List.concat_map
      (fun ((rule, _, _, _) as r) ->
        [
          Alcotest.test_case (rule ^ " detected") `Quick (test_rule_detected r);
          Alcotest.test_case (rule ^ " suppressed") `Quick
            (test_rule_suppressed r);
        ])
      rule_table
  in
  Alcotest.run "analyze"
    [
      ("rules", per_rule);
      ( "passes",
        [
          Alcotest.test_case "fixtures compiled" `Quick test_fixtures_compiled;
          Alcotest.test_case "race detected" `Quick test_race_detected;
          Alcotest.test_case "race barrier sanction" `Quick
            test_race_sanctioned;
          Alcotest.test_case "race global sanction" `Quick
            test_race_global_sanctioned;
          Alcotest.test_case "alloc detected" `Quick test_alloc_detected;
          Alcotest.test_case "unboxed ref accepted" `Quick
            test_alloc_unboxed_ref_ok;
          Alcotest.test_case "alloc pragma" `Quick test_alloc_pragma;
          Alcotest.test_case "unknown hot-path" `Quick test_unknown_hotpath;
          Alcotest.test_case "stale sanction" `Quick test_stale_sanction;
          Alcotest.test_case "purity transitive" `Quick test_purity_transitive;
          Alcotest.test_case "purity frontier" `Quick test_purity_frontier;
          Alcotest.test_case "purity barrier" `Quick test_purity_barrier;
          Alcotest.test_case "dead export reported" `Quick
            test_dead_export_reported;
          Alcotest.test_case "test-only export reported" `Quick
            test_test_only_reported;
          Alcotest.test_case "test-hook sanction" `Quick
            test_test_hook_suppresses;
          Alcotest.test_case "stale test-hook" `Quick test_test_hook_stale;
          Alcotest.test_case "examples and perfbench are users" `Quick
            test_read_only_users;
          Alcotest.test_case "partial build refused" `Quick
            test_partial_build_refused;
        ] );
      ( "engine",
        [
          Alcotest.test_case "clean file" `Quick test_clean_file;
          Alcotest.test_case "scope gating" `Quick test_scope_gating;
          Alcotest.test_case "sanctioned module" `Quick test_sanctioned_module;
          Alcotest.test_case "unix-net scope" `Quick test_unix_net;
          Alcotest.test_case "unsafe index" `Quick test_unsafe_index;
          Alcotest.test_case "unused pragma" `Quick test_unused_pragma;
          Alcotest.test_case "bad pragma" `Quick test_bad_pragma;
          Alcotest.test_case "same-line pragma" `Quick test_pragma_same_line;
          Alcotest.test_case "re-raise allowed" `Quick test_reraise_not_flagged;
          Alcotest.test_case "float pattern" `Quick test_float_pattern;
          Alcotest.test_case "Stdlib-qualified" `Quick test_stdlib_qualified;
          Alcotest.test_case "mli present" `Quick test_mli_present;
          Alcotest.test_case "parse sanctions" `Quick test_parse_sanctions;
          Alcotest.test_case "sanctions rejects" `Quick
            test_parse_sanctions_rejects;
          Alcotest.test_case "parse hotpaths" `Quick test_parse_hotpaths;
          Alcotest.test_case "rule table" `Quick test_rule_table;
          Alcotest.test_case "errors severity" `Quick
            test_every_finding_is_an_error;
          Alcotest.test_case "violation exit code" `Quick
            test_violation_exit_code;
          Alcotest.test_case "scope classification" `Quick
            test_scope_classification;
          Alcotest.test_case "json shape" `Quick test_json_shape;
        ] );
    ]
