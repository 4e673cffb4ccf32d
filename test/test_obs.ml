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

(* Floats of the families where %.17g digit generation goes wrong:
   carries into the next power of ten, the edges of the integer path's
   range, exact ties, subnormals.  Both printing paths are held byte for
   byte to Printf on them. *)
let float_families =
  let ulp_step f k = Int64.float_of_bits (Int64.add (Int64.bits_of_float f) (Int64.of_int k)) in
  let gen =
    QCheck.Gen.(
      let finite_bits =
        map
          (fun b ->
            let f = Int64.float_of_bits b in
            if Float.is_finite f then f else 0.5)
          ui64
      in
      let around =
        let* f = oneofl [ 1e17; 1e-4; 0x1p53; 1e16; 1e15; 0.1; 1.; 10. ] in
        let* k = int_range (-3) 3 in
        let* neg = bool in
        let v = ulp_step f k in
        return (if neg then -.v else v)
      in
      let power_of_ten =
        let* e = int_range (-30) 30 in
        let* k = int_range (-1) 1 in
        let* neg = bool in
        let v = ulp_step (10. ** float_of_int e) k in
        return (if neg then -.v else v)
      in
      let scaled =
        let* u = float_bound_exclusive 1. in
        let* e = int_range (-6) 18 in
        let* neg = bool in
        let v = u *. (10. ** float_of_int e) in
        return (if neg then -.v else v)
      in
      (* x = k/4 just below 2^51: 18 significant digits ending in 5 *)
      let tie =
        let* k = int_range 0 1_000_000 in
        return ((0x1p50 +. float_of_int k) +. 0.25)
      in
      let subnormal = map (fun b -> Int64.float_of_bits (Int64.logand b 0xF_FFFF_FFFF_FFFFL)) ui64 in
      frequency
        [
          (3, finite_bits);
          (3, float_bound_exclusive 1.);
          (2, power_of_ten);
          (2, around);
          (2, scaled);
          (1, tie);
          (1, subnormal);
          (1, oneofl [ 0x1p53 -. 1.; 0x1p53 +. 2.; 0x1p53; 0.; -0.; 5e-324 ]);
        ])
  in
  QCheck.make ~print:(Printf.sprintf "%h") gen

let qcheck_add_float_families =
  QCheck.Test.make ~name:"json add_float = %.17g, integer path" ~count:20_000 float_families (fun f ->
      let b = Buffer.create 32 in
      Json.add_float b f;
      String.equal (Buffer.contents b) (Printf.sprintf "%.17g" f))

let qcheck_put_float_fallback =
  QCheck.Test.make ~name:"json put_float = %.17g, fallback path" ~count:2000 float_families (fun f ->
      let b = Bytes.create Json.float_room in
      let e = Json.put_float ~force_fallback:true b 0 f in
      String.equal (Bytes.sub_string b 0 e) (Printf.sprintf "%.17g" f))

(* Number tokens, well and badly formed.  [Json.number] must classify
   and convert each exactly as int_of_string_opt and float_of_string_opt
   do, which is what the frame scanner and [Json.of_string] both rely
   on. *)
let number_tokens =
  let gen =
    QCheck.Gen.(
      let soup = string_size ~gen:(oneofl [ '0'; '1'; '5'; '9'; '-'; '+'; '.'; 'e'; 'E' ]) (int_range 0 12) in
      let formatted =
        let* f = oneof [ float; float_bound_exclusive 1. ] in
        let* scale = int_range (-25) 25 in
        let* digits = int_range 1 21 in
        oneofl [ Printf.sprintf "%.17g" f; Printf.sprintf "%.*g" digits (f *. (10. ** float_of_int scale)) ]
      in
      (* halfway between two adjacent doubles, in at most 19 digits *)
      let tie =
        let* k = int_range 0 1_000_000_000 in
        oneofl
          [
            Printf.sprintf "%d.5" (0x10_0000_0000_0000 + k);
            string_of_int (0x20_0000_0000_0000 + (2 * k) + 1);
            Printf.sprintf "%d.75e-3" (0x8_0000_0000_0000 + k);
          ]
      in
      let decimal =
        let digits n = string_size ~gen:(char_range '0' '9') (int_range 0 n) in
        let* i = digits 22 in
        let* f = digits 22 in
        let* e = oneofl [ ""; "e"; "E-"; "e+" ] in
        let* x = int_range 0 40 in
        return (i ^ "." ^ f ^ if String.equal e "" then "" else e ^ string_of_int x)
      in
      let big =
        let* digits = int_range 17 22 in
        let* neg = bool in
        let* s = string_size ~gen:(char_range '0' '9') (return digits) in
        return ((if neg then "-" else "") ^ s)
      in
      frequency
        [
          (4, soup);
          (3, formatted);
          (1, tie);
          (2, decimal);
          (2, map string_of_int int);
          (1, big);
          ( 1,
            oneofl
              [ "-0"; "+0"; "1E-3"; "1e"; "1.2.3"; "+1"; "--1"; "4611686018427387903"; "4611686018427387904";
                "-4611686018427387904"; "-4611686018427387905"; "007"; "." ; ""; "-"; "1e+"; ".5"; "5." ] );
        ])
  in
  QCheck.make ~print:Fun.id gen

(* [Json.number] on [tok] embedded between non-number bytes: the token's
   extent, kind and value are [int_of_string_opt]'s, else
   [float_of_string_opt]'s, bit for bit, with ints read back both ways. *)
let number_agrees ~flags tok =
  let b = Bytes.of_string ("[" ^ tok ^ "]") in
  let n = Bytes.length b in
  let dst = Array.make 2 0. in
  let r = Json.number b 1 n dst 1 flags in
  let kind = Json.token_kind r in
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let value_ok =
    match (int_of_string_opt tok, float_of_string_opt tok) with
    | Some v, _ ->
        kind = Json.int_token
        && Json.int_value dst 1 = v
        &&
        let r' = Json.number b 1 n dst 1 (flags lor Json.ints_as_floats) in
        r' = r && same_bits dst.(1) (float_of_int v)
    | None, Some v -> kind = Json.float_token && same_bits dst.(1) v
    | None, None -> kind = Json.bad_token
  in
  Json.token_end r = 1 + String.length tok && value_ok

let qcheck_number_lexers =
  QCheck.Test.make ~name:"json number lexers = int/float_of_string" ~count:5000 number_tokens
    (number_agrees ~flags:0)

let qcheck_number_fallback =
  QCheck.Test.make ~name:"json number lexers, strtod path" ~count:5000 number_tokens
    (number_agrees ~flags:Json.fallback)

(* Printed and read back on each pair of paths, every finite float is
   itself again, except -0, which prints as the int token "-0". *)
let qcheck_number_round_trip =
  QCheck.Test.make ~name:"json number round-trip, both paths" ~count:5000 float_families (fun f ->
      (not (Float.is_finite f))
      || List.for_all
           (fun (force_fallback, flags) ->
             let b = Bytes.create Json.float_room in
             let e = Json.put_float ~force_fallback b 0 f in
             let dst = [| 0. |] in
             let r = Json.number b 0 e dst 0 (flags lor Json.ints_as_floats) in
             Json.token_end r = e
             && Json.token_kind r <> Json.bad_token
             && (Int64.equal (Int64.bits_of_float dst.(0)) (Int64.bits_of_float f)
                || Float.equal f 0.))
           [ (false, 0); (false, Json.fallback); (true, 0); (true, Json.fallback) ])

(* The edges of both fast paths, each side of each. *)
let edge_floats =
  let ulp f k = Int64.float_of_bits (Int64.add (Int64.bits_of_float f) (Int64.of_int k)) in
  let around f = [ ulp f (-1); f; ulp f 1 ] in
  List.concat_map
    (fun f -> [ f; -.f ])
    ([ 0.; 5e-324; ulp 5e-324 1; 0x0.fffffffffffffp-1022; 0x1p-1022; Float.max_float; 0x1p53; 1e-5 ]
    @ around 1e-4 @ around 1e17 @ around 1e16 @ around 1.)

let edge_tokens =
  [ "0"; "-0"; "+0"; "0.0"; "-0.0"; "0e0"; "-0e-5"; "0.000e999";
    (* subnormals, and the normal edge *)
    "5e-324"; "4.9406564584124654e-324"; "2.4703282292062327e-324"; "2.4703282292062328e-324";
    "2.2250738585072009e-308"; "2.2250738585072011e-308"; "2.2250738585072014e-308";
    (* %.17g's integer range *)
    "0.0001"; "0.00010000000000000000"; "9.9999999999999991e-05"; "0.00010000000000000001";
    "1e17"; "1.0000000000000000e+17"; "99999999999999984"; "9.9999999999999984e+16"; "100000000000000000";
    (* 19 and 20 significant digits *)
    "1234567890123456789"; "9999999999999999999"; "1234567890123456789e-10"; "9999999999999999999e-27";
    "0.1234567890123456789"; "12345678901234567890"; "12345678901234567890e-10"; "99999999999999999999e55";
    "-9223372036854775808"; "18446744073709551615"; "18446744073709551616";
    (* decimal exponents at the integer parser's limits, and the exponent cap *)
    "1e-27"; "1e-28"; "9.999999999999999999e-9"; "1e55"; "1e56"; "9999999999999999999e55";
    "9999999999999999999e56"; "1.5e-27"; "0.1e-26"; "10e54"; "1e9999"; "1e10000"; "1e-10000";
    "1e99999999999999999999"; "1e400"; "-1e400"; "1e-400"; "1e308"; "1.7976931348623157e308";
    "1.7976931348623159e308";
    (* ints at +-2^62 *)
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
    "+4611686018427387903"; "007"; "-007" ]

let test_number_edges () =
  List.iter
    (fun flags ->
      List.iter
        (fun tok ->
          if not (number_agrees ~flags tok) then
            Alcotest.failf "Json.number disagrees with int/float_of_string on %S (flags %d)" tok flags)
        edge_tokens;
      List.iter
        (fun f ->
          let printed = Printf.sprintf "%.17g" f in
          List.iter
            (fun force_fallback ->
              let b = Bytes.create Json.float_room in
              let e = Json.put_float ~force_fallback b 0 f in
              if not (String.equal (Bytes.sub_string b 0 e) printed) then
                Alcotest.failf "put_float %h printed %S, not %S" f (Bytes.sub_string b 0 e) printed)
            [ false; true ];
          if not (number_agrees ~flags printed) then
            Alcotest.failf "Json.number disagrees on %S (flags %d)" printed flags)
        edge_floats)
    [ 0; Json.fallback ]

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
          QCheck_alcotest.to_alcotest qcheck_add_float_families;
          QCheck_alcotest.to_alcotest qcheck_put_float_fallback;
          QCheck_alcotest.to_alcotest qcheck_number_lexers;
          QCheck_alcotest.to_alcotest qcheck_number_fallback;
          QCheck_alcotest.to_alcotest qcheck_number_round_trip;
          Alcotest.test_case "json number and float edges" `Quick test_number_edges;
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
