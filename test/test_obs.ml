(* Tests for the observability layer (Archpred_obs): span nesting, sink
   output shapes, counter-merge determinism across domain counts, the
   guarantee that instrumentation never perturbs training, strict
   ARCHPRED_DOMAINS parsing and the Config/Error satellite APIs. *)

[@@@alert "-deprecated"]

module Obs = Archpred_obs
module Sink = Archpred_obs.Sink
module Json = Archpred_obs.Json
module Error = Archpred_obs.Error
module Core = Archpred_core
module Config = Core.Config
module Build = Core.Build
module Response = Core.Response
module Paper_space = Core.Paper_space
module Rng = Archpred_stats.Rng

(* ---------- spans ---------- *)

let test_span_nesting () =
  let obs = Obs.create () in
  Obs.with_span obs "outer" (fun () ->
      Obs.with_span obs "inner" (fun () -> ());
      Obs.with_span obs "inner" (fun () -> ()));
  Obs.with_span obs "outer" (fun () -> ());
  let spans = Obs.spans obs in
  Alcotest.(check (list (pair (list string) int)))
    "paths and call counts"
    [ ([ "outer"; "inner" ], 2); ([ "outer" ], 2) ]
    spans

let test_span_value_and_exception_safety () =
  let obs = Obs.create () in
  Alcotest.(check int) "returns body value" 7
    (Obs.with_span obs "s" (fun () -> 7));
  (try Obs.with_span obs "s" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check (list (pair (list string) int)))
    "span recorded despite raise"
    [ ([ "s" ], 2) ]
    (Obs.spans obs)

let test_null_handle_is_noop () =
  Alcotest.(check bool) "null disabled" false (Obs.enabled Obs.null);
  Obs.incr Obs.null "c";
  Obs.gauge Obs.null "g" 1.;
  Alcotest.(check int) "body still runs" 3
    (Obs.with_span Obs.null "s" (fun () -> 3));
  Alcotest.(check (list (pair string int))) "no counters" [] (Obs.counters Obs.null);
  Alcotest.(check (list (pair (list string) int))) "no spans" [] (Obs.spans Obs.null)

(* ---------- sinks ---------- *)

let test_memory_sink_event_shapes () =
  let sink, events = Sink.memory () in
  let obs = Obs.create ~sink () in
  Obs.with_span obs "a" (fun () -> Obs.with_span obs "b" (fun () -> ()));
  Obs.gauge obs "depth" 2.5;
  Obs.count obs "hits" 3;
  Obs.close obs;
  let evs = events () in
  let has p = List.exists p evs in
  Alcotest.(check bool) "nested span path" true
    (has (function Sink.Span { path; _ } -> path = [ "a"; "b" ] | _ -> false));
  Alcotest.(check bool) "root span path" true
    (has (function Sink.Span { path; _ } -> path = [ "a" ] | _ -> false));
  Alcotest.(check bool) "gauge streamed" true
    (has (function Sink.Gauge { name; value } -> name = "depth" && Float.equal value 2.5 | _ -> false));
  Alcotest.(check bool) "counter total at close" true
    (has (function Sink.Counter { name; value } -> name = "hits" && value = 3 | _ -> false))

let test_jsonl_sink_parses () =
  let lines = ref [] in
  let obs = Obs.create ~sink:(Sink.jsonl (fun l -> lines := l :: !lines)) () in
  Obs.with_span obs "train" (fun () -> Obs.incr obs "n");
  Obs.gauge obs "q" 0.;
  Obs.close obs;
  let kinds =
    List.rev_map
      (fun line ->
        match Json.of_string line with
        | Error m -> Alcotest.failf "unparseable line %S: %s" line m
        | Ok j -> (
            match Json.member "type" j with
            | Some (Json.String k) -> k
            | _ -> Alcotest.failf "no type field in %S" line))
      !lines
  in
  Alcotest.(check bool) "span line" true (List.mem "span" kinds);
  Alcotest.(check bool) "counter line" true (List.mem "counter" kinds);
  Alcotest.(check bool) "gauge line" true (List.mem "gauge" kinds)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("type", Json.String "span");
        ("path", Json.String "a/b \"c\"");
        ("ns", Json.Int 123456789012345);
        ("ok", Json.Bool true);
        ("x", Json.Float 0.125);
        ("xs", Json.List [ Json.Null; Json.Int (-3) ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error m -> Alcotest.failf "roundtrip failed: %s" m

(* ---------- counters across domains ---------- *)

let pipeline_counters domains =
  Unix.putenv "ARCHPRED_DOMAINS" (string_of_int domains);
  let obs = Obs.create () in
  let response = Response.synthetic_smooth ~dim:9 in
  let config =
    Config.default |> Config.with_seed 5
    |> Config.with_sample_size 30
    |> Config.with_lhs_candidates 10
    |> Config.with_obs obs
  in
  let trained = Build.train ~config ~space:Paper_space.space ~response () in
  (trained, Obs.counters obs)

let test_counter_merge_deterministic () =
  let _, c1 = pipeline_counters 1 in
  let _, c4 = pipeline_counters 4 in
  Alcotest.(check (list (pair string int))) "counters identical 1 vs 4" c1 c4;
  Alcotest.(check bool) "tree nodes counted" true (List.mem_assoc "tree.nodes" c1);
  Alcotest.(check bool) "centers tried" true
    (List.exists (fun (n, v) -> n = "rbf.centers_tried" && v > 0) c1);
  Alcotest.(check bool) "cholesky pushes" true
    (List.exists (fun (n, v) -> n = "ils.pushes" && v > 0) c1);
  Alcotest.(check bool) "lhs candidates" true
    (List.mem_assoc "lhs.candidates" c1)

let test_instrumentation_preserves_training () =
  (* the regression the tentpole promises: a silent sink (or any sink)
     must leave the trained predictor bit-identical to an uninstrumented
     run, and to a run configured through an explicit generator *)
  Unix.putenv "ARCHPRED_DOMAINS" "2";
  let response = Response.synthetic_smooth ~dim:9 in
  let train obs =
    Build.train
      ~config:
        (Config.default |> Config.with_seed 5
        |> Config.with_sample_size 30
        |> Config.with_lhs_candidates 10
        |> Config.with_obs obs)
      ~space:Paper_space.space ~response ()
  in
  let bare = train Obs.null in
  let silent = train (Obs.create ()) in
  let sink, _ = Sink.memory () in
  let streamed = train (Obs.create ~sink ()) in
  let explicit_rng =
    Build.train
      ~config:
        (Config.default
        |> Config.with_rng (Rng.create 5)
        |> Config.with_sample_size 30
        |> Config.with_lhs_candidates 10)
      ~space:Paper_space.space ~response ()
  in
  let rng = Rng.create 77 in
  for _ = 1 to 20 do
    let p = Array.init 9 (fun _ -> Rng.unit_float rng) in
    let expect = Core.Predictor.predict bare.Build.predictor p in
    List.iter
      (fun (name, t) ->
        Alcotest.(check (float 0.)) name expect
          (Core.Predictor.predict t.Build.predictor p))
      [
        ("silent sink", silent);
        ("memory sink", streamed);
        ("explicit rng", explicit_rng);
      ]
  done

(* ---------- ARCHPRED_DOMAINS parsing ---------- *)

let check_env_rejected value =
  Unix.putenv "ARCHPRED_DOMAINS" value;
  match Archpred_stats.Parallel.env_domains () with
  | _ -> Alcotest.failf "ARCHPRED_DOMAINS=%S accepted" value
  | exception Error.Archpred (Error.Invalid_env { var; _ }) ->
      Alcotest.(check string) "names the variable" "ARCHPRED_DOMAINS" var

let test_env_domains_strict () =
  Unix.putenv "ARCHPRED_DOMAINS" "3";
  Alcotest.(check (option int)) "valid value" (Some 3)
    (Archpred_stats.Parallel.env_domains ());
  check_env_rejected "0";
  check_env_rejected "-2";
  check_env_rejected "four";
  (* leave a sane value behind for any later test in this binary *)
  Unix.putenv "ARCHPRED_DOMAINS" "2"

(* ---------- report ---------- *)

let test_report_contents () =
  let obs = Obs.create () in
  Obs.with_span obs "build.train" (fun () ->
      Obs.with_span obs "build.sample" (fun () -> ());
      Obs.incr obs "sim.runs");
  Obs.gauge obs "pool.queue_depth" 0.;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.report obs ppf;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report mentions %s" needle) true
        (contains needle))
    [
      "observability report"; "build.train"; "build.sample"; "sim.runs";
      "pool.queue_depth";
    ]

(* ---------- Config ---------- *)

let test_config_setters () =
  let c =
    Config.default |> Config.with_seed 9
    |> Config.with_sample_size 55
    |> Config.with_trace_length 1234
    |> Config.with_domains 3
    |> Config.with_p_min_grid [ 4 ]
    |> Config.with_alpha_grid [ 2.5 ]
    |> Config.with_lhs_candidates 17
  in
  Alcotest.(check int) "seed" 9 c.Config.seed;
  Alcotest.(check int) "sample size" 55 c.Config.sample_size;
  Alcotest.(check int) "trace length" 1234 c.Config.trace_length;
  Alcotest.(check (option int)) "domains" (Some 3) c.Config.domains;
  Alcotest.(check (list int)) "p_min grid" [ 4 ] c.Config.p_min_grid;
  Alcotest.(check int) "lhs candidates" 17 c.Config.lhs_candidates;
  Alcotest.(check (list int)) "default p_min grid intact" [ 1; 2; 3 ]
    Config.default.Config.p_min_grid

let test_config_seed_rng_interplay () =
  (* with_seed discards an installed rng so the seed is authoritative *)
  let c =
    Config.default |> Config.with_rng (Rng.create 1) |> Config.with_seed 8
  in
  let a = Rng.unit_float (Config.rng_of c) in
  let b = Rng.unit_float (Rng.create 8) in
  Alcotest.(check (float 0.)) "rng_of follows seed" b a

let check_config_rejected c =
  match Config.validate c with
  | _ -> Alcotest.fail "invalid config accepted"
  | exception Error.Archpred (Error.Invalid_input { where; _ }) ->
      Alcotest.(check string) "where" "Config" where

let test_config_validate () =
  ignore (Config.validate Config.default);
  check_config_rejected (Config.with_sample_size 0 Config.default);
  check_config_rejected (Config.with_trace_length 0 Config.default);
  check_config_rejected (Config.with_lhs_candidates 0 Config.default);
  check_config_rejected (Config.with_p_min_grid [] Config.default);
  check_config_rejected (Config.with_alpha_grid [] Config.default);
  check_config_rejected (Config.with_domains 0 Config.default)

(* ---------- Error ---------- *)

let test_error_exit_codes_distinct () =
  let errors =
    [
      Error.Invalid_input { where = "w"; what = "x" };
      Error.Invalid_env { var = "V"; what = "x" };
      Error.Io_error { path = "p"; what = "x" };
      Error.Parse_error { where = "w"; line = 3; what = "x" };
      Error.Infeasible { where = "w"; what = "x" };
    ]
  in
  let codes = List.map Error.exit_code errors in
  Alcotest.(check (list int)) "stable exit codes" [ 2; 3; 4; 5; 6 ] codes;
  List.iter
    (fun e ->
      Alcotest.(check bool) "message non-empty" true
        (String.length (Error.to_string e) > 0))
    errors;
  Alcotest.(check bool) "core re-export is the same type" true
    (Core.Error.exit_code (Core.Error.Infeasible { where = "w"; what = "x" }) = 6)

let test_error_guard () =
  (match Error.guard (fun () -> 41 + 1) with
  | Ok v -> Alcotest.(check int) "ok" 42 v
  | Error _ -> Alcotest.fail "guard broke success");
  match Error.guard (fun () -> Error.invalid_input ~where:"t" "bad") with
  | Error (Error.Invalid_input { where = "t"; what = "bad" }) -> ()
  | _ -> Alcotest.fail "guard missed error"

(* Json renders floats through the %g primitive directly; the bytes must
   be exactly Printf's. *)
let qcheck_json_float_printf =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (4, float);
          (2, map Int64.float_of_bits ui64);
          (1, oneofl [ 0.; -0.; Float.nan; Float.infinity; Float.neg_infinity; 5e-324; Float.max_float ]);
        ])
  in
  QCheck.Test.make ~name:"json float = Printf %.17g" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen) (fun f ->
      let expect = if Float.is_finite f then Printf.sprintf "%.17g" f else "null" in
      String.equal (Json.to_string (Json.Float f)) expect)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "value + exception safety" `Quick
            test_span_value_and_exception_safety;
          Alcotest.test_case "null handle" `Quick test_null_handle_is_noop;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "memory shapes" `Quick test_memory_sink_event_shapes;
          Alcotest.test_case "jsonl parses" `Quick test_jsonl_sink_parses;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_json_float_printf;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "counter merge deterministic" `Quick
            test_counter_merge_deterministic;
          Alcotest.test_case "training unperturbed" `Quick
            test_instrumentation_preserves_training;
          Alcotest.test_case "report contents" `Quick test_report_contents;
        ] );
      ( "env",
        [ Alcotest.test_case "ARCHPRED_DOMAINS strict" `Quick test_env_domains_strict ] );
      ( "config",
        [
          Alcotest.test_case "setters" `Quick test_config_setters;
          Alcotest.test_case "seed/rng interplay" `Quick
            test_config_seed_rng_interplay;
          Alcotest.test_case "validate" `Quick test_config_validate;
        ] );
      ( "error",
        [
          Alcotest.test_case "exit codes" `Quick test_error_exit_codes_distinct;
          Alcotest.test_case "guard" `Quick test_error_guard;
        ] );
    ]
