(* Smoke validator for the batched-simulation record: a tiny-budget
   Sim_bench.run must produce an archpred-parallel-v1 JSON report whose
   sim section parses, carries every per-config rate and speedup field
   in range, and attests bit-identity between the batched engine and the
   sequential reference.  It also round-trips section sharing: a
   pre-existing micro-benchmark "results" section must survive the sim
   writer.  Run by the dune smoke rule in this directory; `bench --sim`
   uses the same writer for the committed BENCH_parallel.json. *)

module Json = Archpred_obs.Json
module Core = Archpred_core

(* archpred-analyze: allow exit -- check harness failure path *)
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let expect_int name j =
  match Json.member name j with
  | Some (Json.Int v) -> v
  | _ -> fail "missing int field %S" name

let expect_float name j =
  match Json.member name j with
  | Some (Json.Float v) -> v
  | Some (Json.Int v) -> float_of_int v
  | _ -> fail "missing numeric field %S" name

let () =
  let path = "smoke_sim.json" in
  (* Seed the report with a foreign section: the sim writer must merge,
     not clobber. *)
  Core.Bench_report.write ~path ~schema:"archpred-parallel-v1"
    [ ("results", Json.List [ Json.Obj [ ("name", Json.String "seeded") ] ]) ];
  let result = Core.Sim_bench.run ~trace_length:400 ~n_configs:5 ~batches:[ 1; 5 ] () in
  let paper = Core.Sim_bench.paper_shape ~trace_length:400 ~n_configs:3 ~reps:1 () in
  Core.Sim_bench.record ~path ~paper result;
  let ic = open_in path in
  let text = In_channel.input_all ic in
  close_in ic;
  let j =
    match Json.of_string text with
    | Ok j -> j
    | Error m -> fail "%s is not valid JSON: %s" path m
  in
  (match Json.member "schema" j with
  | Some (Json.String "archpred-parallel-v1") -> ()
  | _ -> fail "missing or wrong schema tag (want archpred-parallel-v1)");
  (match Json.member "schema_version" j with
  | Some (Json.Int v) when v >= 1 -> ()
  | _ -> fail "missing envelope field \"schema_version\"");
  (match Json.member "cores" j with
  | Some (Json.Int c) when c >= 1 -> ()
  | _ -> fail "missing metadata field \"cores\"");
  (match Json.member "domains" j with
  | Some (Json.Int d) when d >= 1 -> ()
  | _ -> fail "missing metadata field \"domains\"");
  (match Json.member "git_describe" j with
  | Some (Json.String _) -> ()
  | _ -> fail "missing metadata field \"git_describe\"");
  (match Json.member "simd" j with
  | Some (Json.String ("avx512" | "avx2" | "scalar")) -> ()
  | _ -> fail "metadata field \"simd\" must be avx512, avx2 or scalar");
  (match Json.member "results" j with
  | Some (Json.List [ _ ]) -> ()
  | _ -> fail "pre-existing \"results\" section was not preserved");
  let sim =
    match Json.member "sim" j with
    | Some s -> s
    | None -> fail "missing \"sim\" section"
  in
  if expect_int "trace_length" sim <> 400 then fail "wrong trace_length";
  if expect_int "n_configs" sim <> 5 then fail "wrong n_configs";
  let rates =
    match Json.member "rates" sim with
    | Some (Json.List l) -> l
    | _ -> fail "missing \"rates\" list"
  in
  if List.length rates <> 5 then
    fail "expected 5 rate rows, got %d" (List.length rates);
  List.iter
    (fun r ->
      (match Json.member "name" r with
      | Some (Json.String _) -> ()
      | _ -> fail "rate row missing \"name\"");
      (match Json.member "policy" r with
      | Some (Json.String ("lru" | "tree-plru" | "qlru" | "mru")) -> ()
      | _ -> fail "rate row carries an unknown policy");
      if not (expect_float "cpi" r > 0.) then fail "cpi must be positive";
      if not (expect_float "inst_per_sec" r > 0.) then
        fail "inst_per_sec must be positive")
    rates;
  let speedups =
    match Json.member "speedups" sim with
    | Some (Json.List l) -> l
    | _ -> fail "missing \"speedups\" list"
  in
  if List.length speedups <> 2 then
    fail "expected 2 speedup rows, got %d" (List.length speedups);
  List.iter
    (fun s ->
      if expect_int "batch" s < 1 then fail "batch must be >= 1";
      List.iter
        (fun f ->
          if not (expect_float f s > 0.) then
            fail "field %S must be positive" f)
        [ "sequential_s"; "batched_s"; "speedup" ])
    speedups;
  (match Json.member "bit_identical" sim with
  | Some (Json.Bool true) -> ()
  | Some (Json.Bool false) ->
      fail "batched engine diverged from the sequential reference"
  | _ -> fail "missing \"bit_identical\"");
  (match Json.member "paper_shape" sim with
  | Some p ->
      if expect_int "trace_length" p <> 400 then fail "wrong paper_shape trace_length";
      if expect_int "n_configs" p <> 3 then fail "wrong paper_shape n_configs";
      if expect_int "domains" p <> 1 then fail "paper_shape must run on 1 domain";
      if not (expect_float "ns_per_inst_config" p > 0.) then
        fail "ns_per_inst_config must be positive";
      (match Json.member "cycles_crc" p with
      | Some (Json.String c) when Core.Crc32.of_hex c <> None -> ()
      | _ -> fail "paper_shape \"cycles_crc\" must be 8 hex digits")
  | None -> fail "missing \"paper_shape\" object");
  Printf.printf "ok: archpred-parallel-v1 sim section valid (5 configs, 2 batch sizes, paper shape)\n"
