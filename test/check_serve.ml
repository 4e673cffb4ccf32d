(* Smoke validator for the serving load test: a tiny-budget Serve.run
   against a small synthetic model must produce an archpred-serve-v1
   JSON report whose schema, metadata and per-run fields all parse and
   lie in range.  Run by the dune smoke rule in this directory; the
   committed BENCH_serve.json is produced by the same writer, so this
   guards its shape without re-running the full benchmark. *)

module Json = Archpred_obs.Json
module Core = Archpred_core
module Rbf = Archpred_rbf
module Stats = Archpred_stats

(* archpred-analyze: allow exit -- check harness failure path *)
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let tiny_predictor () =
  let dim = 9 in
  let rng = Stats.Rng.create 41 in
  let centers =
    Array.init 6 (fun _ ->
        {
          Rbf.Network.c = Array.init dim (fun _ -> Stats.Rng.unit_float rng);
          r = Array.init dim (fun _ -> 0.3 +. Stats.Rng.unit_float rng);
        })
  in
  let weights = Array.init 6 (fun _ -> Stats.Rng.unit_float rng -. 0.5) in
  let network = { Rbf.Network.centers; weights } in
  Core.Predictor.make ~space:Core.Paper_space.space ~network ~p_min:1
    ~alpha:7. ()

let expect_int name j =
  match Json.member name j with
  | Some (Json.Int v) -> v
  | _ -> fail "run is missing int field %S" name

let expect_float name j =
  match Json.member name j with
  | Some (Json.Float v) -> v
  | Some (Json.Int v) -> float_of_int v
  | _ -> fail "run is missing numeric field %S" name

let () =
  let predictor = tiny_predictor () in
  let config =
    {
      Core.Serve.default with
      Core.Serve.batch_size = 16;
      batches = 8;
      distinct_points = 32;
      cache_capacity = 64;
    }
  in
  let result = Core.Serve.run ~predictor config in
  let path = "smoke_serve.json" in
  Core.Serve.write_json ~path [ result ];
  let ic = open_in path in
  let text = In_channel.input_all ic in
  close_in ic;
  let j =
    match Json.of_string text with
    | Ok j -> j
    | Error m -> fail "%s is not valid JSON: %s" path m
  in
  (match Json.member "schema" j with
  | Some (Json.String "archpred-serve-v1") -> ()
  | _ -> fail "missing or wrong schema tag (want archpred-serve-v1)");
  (match Json.member "domains" j with
  | Some (Json.Int d) when d >= 1 -> ()
  | _ -> fail "missing metadata field \"domains\"");
  (match Json.member "git_describe" j with
  | Some (Json.String _) -> ()
  | _ -> fail "missing metadata field \"git_describe\"");
  (match Json.member "simd" j with
  | Some (Json.String ("avx512" | "avx2" | "scalar")) -> ()
  | _ -> fail "metadata field \"simd\" must be avx512, avx2 or scalar");
  let run =
    match Json.member "runs" j with
    | Some (Json.List [ r ]) -> r
    | Some (Json.List l) -> fail "expected exactly 1 run, got %d" (List.length l)
    | _ -> fail "missing \"runs\" list"
  in
  let batch_size = expect_int "batch_size" run in
  let predictions = expect_int "predictions" run in
  if batch_size <> 16 then fail "batch_size: want 16, got %d" batch_size;
  if predictions <> 16 * 8 then
    fail "predictions: want %d, got %d" (16 * 8) predictions;
  List.iter
    (fun f ->
      let v = expect_float f run in
      if not (v > 0.) then fail "field %S must be positive, got %g" f v)
    [
      "key_reuse";
      "scalar_ns_per_point";
      "batch_ns_per_point";
      "kernel_ns_per_point";
      "cached_ns_per_point";
      "predictions_per_sec";
      "speedup_vs_scalar";
    ];
  let hit_rate = expect_float "hit_rate" run in
  if not (hit_rate >= 0. && hit_rate <= 1.) then
    fail "hit_rate must lie in [0, 1], got %g" hit_rate;
  let hits = expect_int "cache_hits" run in
  let misses = expect_int "cache_misses" run in
  let bypasses = expect_int "cache_bypasses" run in
  if hits < 0 || misses < 0 || bypasses < 0 then
    fail "cache counters must be non-negative";
  if hits + misses + bypasses <> predictions then
    fail "cache classified %d lookups, expected %d"
      (hits + misses + bypasses) predictions;
  ignore (expect_int "cache_evictions" run);
  ignore (expect_float "checksum" run);
  Printf.printf "ok: archpred-serve-v1 report valid (%d predictions, hit rate %.3f)\n"
    predictions hit_rate
