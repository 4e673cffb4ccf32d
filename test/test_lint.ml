(* Golden tests for archpred-lint (tools/lint): every rule is exercised
   for both detection and pragma suppression on a small fixture source,
   plus the pragma meta-rules (unused / malformed), scope gating,
   sanctioned modules, severity downgrades, Core.Error exit codes and
   the JSON record shape.  The "real tree lints clean" half of the
   contract lives in the root dune file: the @lint alias is attached to
   runtest, so `dune runtest` fails on any violation in lib/ bin/
   bench/ test/. *)

module Lint = Lint_engine.Lint
module Error = Archpred_obs.Error
module Json = Archpred_obs.Json

let scan ?(scope = Lint.Lib) ?mli_exists ?warn src =
  Lint.scan_string ~scope ?mli_exists ?warn ~filename:"fixture.ml" src

let rules_of findings = List.map (fun f -> f.Lint.rule) findings
let srules = Alcotest.(list string)

(* Each fixture puts its violation on line 1 so the generic suppression
   test can prefix a pragma line. *)
let fixtures =
  [
    ("random-global", "let _x = Random.int 5\n");
    ("poly-compare", "let f (xs : float list) = List.sort compare xs\n");
    ("hashtbl-order", "let f h = Hashtbl.iter (fun _ () -> ()) h\n");
    ("wall-clock", "let t () = Unix.gettimeofday ()\n");
    ("stdout-print", "let () = Printf.printf \"hi\"\n");
    ("exit", "let f () = exit 1\n");
    ("unsafe-cast", "let f x = Obj.magic x\n");
    ("float-lit-eq", "let f x = x = 0.5\n");
    ("catchall-exn", "let f g = try g () with _ -> 0\n");
    ("missing-mli", "let x = 1\n");
    ("unsafe-index", "let f a = Float.Array.unsafe_get a 0\n");
    ("unix-net", "let f () = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0\n");
  ]

let mli_exists_for rule = if rule = "missing-mli" then Some false else None

let test_detects (rule, src) () =
  let findings = scan ?mli_exists:(mli_exists_for rule) src in
  Alcotest.check srules ("detects " ^ rule) [ rule ] (rules_of findings);
  Alcotest.(check int) "counted as error" 1 (Lint.errors findings)

let test_pragma_suppresses (rule, src) () =
  let pragma =
    Printf.sprintf "(* archpred-lint: allow %s -- fixture reason *)\n" rule
  in
  let findings = scan ?mli_exists:(mli_exists_for rule) (pragma ^ src) in
  Alcotest.check srules ("pragma suppresses " ^ rule) [] (rules_of findings)

let test_clean_file () =
  let src =
    "let f xs = List.sort Float.compare xs\n\
     let g x = Float.equal x 0.5\n\
     let h () = try List.hd [] with Failure _ -> 0\n"
  in
  Alcotest.check srules "clean file passes" [] (rules_of (scan src))

let test_rule_table () =
  Alcotest.(check int) "twelve rules" 12 (List.length Lint.rules);
  List.iter
    (fun (rule, _) ->
      Alcotest.(check bool)
        (rule ^ " is a documented rule") true
        (List.mem_assoc rule Lint.rules))
    fixtures

(* --- scope gating: the same construct is legal where sanctioned --- *)

let test_scopes () =
  let check ~scope ~expect name src =
    Alcotest.check srules name expect (rules_of (scan ~scope src))
  in
  check ~scope:Lint.Bench ~expect:[] "wall-clock legal in bench/"
    "let t () = Unix.gettimeofday ()\n";
  check ~scope:Lint.Bin ~expect:[] "exit legal in bin/" "let f () = exit 1\n";
  check ~scope:Lint.Bin ~expect:[] "stdout legal in bin/"
    "let () = Printf.printf \"hi\"\n";
  check ~scope:Lint.Test ~expect:[] "poly-compare tolerated in test/"
    "let f xs = List.sort compare xs\n";
  check ~scope:Lint.Test ~expect:[ "random-global" ]
    "Random still illegal in test/" "let _x = Random.int 5\n";
  check ~scope:Lint.Test ~expect:[] "sockets legal in test/"
    "let f fd = Unix.listen fd 8\n";
  check ~scope:Lint.Bin ~expect:[] "sockets legal in bin/"
    "let f fd = Unix.accept fd\n";
  (* tools/ is a hybrid scope: determinism rules bite like lib/, CLI
     conveniences stay legal like bin/. *)
  check ~scope:Lint.Tools ~expect:[ "poly-compare" ]
    "poly-compare illegal in tools/" "let f xs = List.sort compare xs\n";
  check ~scope:Lint.Tools ~expect:[ "hashtbl-order" ]
    "Hashtbl.iter illegal in tools/" "let f h = Hashtbl.iter ignore h\n";
  check ~scope:Lint.Tools ~expect:[ "wall-clock" ]
    "wall-clock illegal in tools/" "let t () = Unix.gettimeofday ()\n";
  check ~scope:Lint.Tools ~expect:[] "stdout legal in tools/"
    "let () = Printf.printf \"hi\"\n";
  check ~scope:Lint.Tools ~expect:[] "exit legal in tools/"
    "let f () = exit 1\n";
  Alcotest.(check (option pass))
    "tools/ paths classify" (Some Lint.Tools)
    (Lint.scope_of_rel "tools/analyze/analyze.ml")

let test_sanctioned_module () =
  let findings =
    Lint.scan_string ~scope:Lint.Lib ~rel:"lib/stats/rng.ml"
      ~filename:"rng.ml" "let _seed = Random.int 3\n"
  in
  Alcotest.check srules "Stats.Rng may touch Random" [] (rules_of findings)

let test_unsafe_index () =
  (* both unchecked-accessor families are caught ... *)
  Alcotest.check srules "Bigarray.Array1 variant detected" [ "unsafe-index" ]
    (rules_of (scan "let f a i = Bigarray.Array1.unsafe_get a i\n"));
  Alcotest.check srules "open-Bigarray variant detected" [ "unsafe-index" ]
    (rules_of (scan "let f a i v = Array2.unsafe_set a i 0 v\n"));
  Alcotest.check srules "Bytes variant detected" [ "unsafe-index" ]
    (rules_of (scan "let f b i = Bytes.unsafe_get b i\n"));
  (* ... plain Array.unsafe_* stays legal (checked hot loops in linalg) *)
  Alcotest.check srules "plain Array.unsafe_get is not this rule" []
    (rules_of (scan "let f a = Array.unsafe_get a 0\n"));
  (* lib-only: bench and test code may index however it likes *)
  Alcotest.check srules "legal outside lib/" []
    (rules_of (scan ~scope:Lint.Bench "let f a = Float.Array.unsafe_get a 0\n"));
  (* the batch kernel is the one sanctioned owner *)
  let findings =
    Lint.scan_string ~scope:Lint.Lib ~rel:"lib/rbf/batch_kernel.ml"
      ~mli_exists:true ~filename:"batch_kernel.ml"
      "let f a i v = Bigarray.Array1.unsafe_set a i v\n"
  in
  Alcotest.check srules "batch kernel may skip bounds checks" []
    (rules_of findings);
  (* ... but the simulator's plan builder is not (its engine is C) *)
  let findings =
    Lint.scan_string ~scope:Lint.Lib ~rel:"lib/sim/batch.ml" ~mli_exists:true
      ~filename:"batch.ml" "let f b i = Bytes.unsafe_set b i 'x'\n"
  in
  Alcotest.check srules "sim batch is not sanctioned" [ "unsafe-index" ]
    (rules_of findings)

let test_unix_net () =
  (* networking and raw-fd I/O are flagged in ordinary library code ... *)
  Alcotest.check srules "Unix.select detected" [ "unix-net" ]
    (rules_of (scan "let f fds = Unix.select fds [] [] 0.1\n"));
  Alcotest.check srules "Unix.read detected" [ "unix-net" ]
    (rules_of (scan "let f fd b = Unix.read fd b 0 1\n"));
  (* ... but the file-durability calls Persist and the shard journals
     rely on stay legal everywhere *)
  Alcotest.check srules "Unix.fsync is not networking" []
    (rules_of (scan "let f fd = Unix.fsync fd\n"));
  (* lib/serve_net owns the socket edge, and may also read the clock *)
  let served src =
    Lint.scan_string ~scope:Lint.Lib ~rel:"lib/serve_net/daemon.ml"
      ~mli_exists:true ~filename:"daemon.ml" src
  in
  Alcotest.check srules "serve_net may use sockets" []
    (rules_of (served "let f fd = Unix.accept fd\n"));
  Alcotest.check srules "serve_net may read the wall clock" []
    (rules_of (served "let t () = Unix.gettimeofday ()\n"));
  (* the sanction is for serve_net only: other lib dirs still trip both *)
  let elsewhere =
    Lint.scan_string ~scope:Lint.Lib ~rel:"lib/core/serve.ml" ~mli_exists:true
      ~filename:"serve.ml" "let f fd = Unix.connect fd (Unix.ADDR_UNIX \"s\")\n"
  in
  Alcotest.check srules "lib/core may not open sockets" [ "unix-net" ]
    (rules_of elsewhere)

(* --- pragma meta-rules --- *)

let test_unused_pragma () =
  let findings = scan "(* archpred-lint: allow exit -- nothing here *)\nlet x = 1\n" in
  Alcotest.check srules "stale pragma flagged" [ "unused-pragma" ]
    (rules_of findings)

let test_bad_pragma () =
  let unknown = scan "(* archpred-lint: allow no-such-rule -- why *)\nlet x = 1\n" in
  Alcotest.check srules "unknown rule rejected" [ "bad-pragma" ]
    (rules_of unknown);
  let no_reason = scan "(* archpred-lint: allow exit *)\nlet f () = exit 1\n" in
  Alcotest.check srules "reason is mandatory" [ "bad-pragma"; "exit" ]
    (rules_of no_reason)

let test_pragma_same_line () =
  let src = "let f () = exit 1 (* archpred-lint: allow exit -- same line *)\n" in
  Alcotest.check srules "same-line pragma works" [] (rules_of (scan src))

(* --- detection subtleties --- *)

let test_reraise_not_flagged () =
  Alcotest.check srules "re-raising handler is fine" []
    (rules_of (scan "let f g = try g () with e -> raise e\n"));
  Alcotest.check srules "named swallower still flagged" [ "catchall-exn" ]
    (rules_of (scan "let f g = try g () with e -> ignore e\n"))

let test_float_pattern () =
  Alcotest.check srules "float pattern flagged" [ "float-lit-eq" ]
    (rules_of (scan "let f x = match x with 1.0 -> true | _ -> false\n"))

let test_stdlib_qualified () =
  Alcotest.check srules "Stdlib.exit is still exit" [ "exit" ]
    (rules_of (scan "let f () = Stdlib.exit 1\n"));
  Alcotest.check srules "Stdlib.compare is still compare" [ "poly-compare" ]
    (rules_of (scan "let f a b = Stdlib.compare a b\n"))

let test_mli_present () =
  Alcotest.check srules "module with .mli passes" []
    (rules_of (scan ~mli_exists:true "let x = 1\n"))

(* --- severities, exit codes, JSON --- *)

let test_warn_downgrade () =
  let findings = scan ~warn:[ "float-lit-eq" ] "let f x = x = 0.5\n" in
  Alcotest.(check int) "no errors" 0 (Lint.errors findings);
  Alcotest.(check int) "one warning" 1 (Lint.warnings findings)

let test_parse_error_exit_code () =
  match scan "let x = \n" with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Error.Archpred e ->
      Alcotest.(check int) "Parse_error maps to exit 5" 5 (Error.exit_code e)

let test_violation_exit_code () =
  (* The CLI reports violations as Invalid_input; tooling separates
     "found problems" (2) from "lint crashed on bad source" (5). *)
  let e = Error.Invalid_input { where = "archpred_lint"; what = "violations" } in
  Alcotest.(check int) "violations map to exit 2" 2 (Error.exit_code e)

let test_json_shape () =
  match scan "let f () = exit 1\n" with
  | [ f ] ->
      let j = Lint.to_json f in
      let str k =
        match Json.member k j with Some (Json.String s) -> s | _ -> "?"
      in
      let int k =
        match Json.member k j with Some (Json.Int i) -> i | _ -> -1
      in
      Alcotest.(check string) "event" "finding" (str "event");
      Alcotest.(check string) "rule" "exit" (str "rule");
      Alcotest.(check string) "severity" "error" (str "severity");
      Alcotest.(check string) "file" "fixture.ml" (str "file");
      Alcotest.(check int) "line" 1 (int "line");
      (* the record must survive a JSON round-trip through the obs parser *)
      (match Json.of_string (Json.to_string j) with
      | Ok j' -> Alcotest.(check bool) "round-trips" true (j = j')
      | Result.Error m -> Alcotest.fail ("did not re-parse: " ^ m))
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let () =
  let per_rule =
    List.concat_map
      (fun ((rule, _) as fx) ->
        [
          Alcotest.test_case (rule ^ " detected") `Quick (test_detects fx);
          Alcotest.test_case (rule ^ " suppressed") `Quick
            (test_pragma_suppresses fx);
        ])
      fixtures
  in
  Alcotest.run "lint"
    [
      ("rules", per_rule);
      ( "engine",
        [
          Alcotest.test_case "clean file" `Quick test_clean_file;
          Alcotest.test_case "rule table" `Quick test_rule_table;
          Alcotest.test_case "scope gating" `Quick test_scopes;
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
          Alcotest.test_case "warn downgrade" `Quick test_warn_downgrade;
          Alcotest.test_case "parse-error exit code" `Quick
            test_parse_error_exit_code;
          Alcotest.test_case "violation exit code" `Quick
            test_violation_exit_code;
          Alcotest.test_case "json shape" `Quick test_json_shape;
        ] );
    ]
