(* Smoke validator for the simulation-engine record: a tiny-budget
   Sim_bench.paper_shape must produce an archpred-parallel-v1 JSON report
   with the envelope stamps and a sim section whose paper_shape object
   carries every field in range.  It also round-trips section sharing: a
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
  let paper = Core.Sim_bench.paper_shape ~trace_length:400 ~n_configs:3 ~reps:1 () in
  Core.Sim_bench.record ~path paper;
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
  (match Json.member "simd_training" j with
  | Some (Json.String ("avx2" | "scalar")) -> ()
  | _ -> fail "metadata field \"simd_training\" must be avx2 or scalar");
  (match Json.member "results" j with
  | Some (Json.List [ _ ]) -> ()
  | _ -> fail "pre-existing \"results\" section was not preserved");
  let p =
    match Json.member "sim" j with
    | Some (Json.Obj [ ("paper_shape", p) ]) -> p
    | Some _ -> fail "the \"sim\" section must hold one \"paper_shape\" object"
    | None -> fail "missing \"sim\" section"
  in
  if expect_int "trace_length" p <> 400 then fail "wrong paper_shape trace_length";
  if expect_int "n_configs" p <> 3 then fail "wrong paper_shape n_configs";
  if expect_int "domains" p <> 1 then fail "paper_shape must run on 1 domain";
  if not (expect_float "ns_per_inst_config" p > 0.) then
    fail "ns_per_inst_config must be positive";
  (match Json.member "cycles_crc" p with
  | Some (Json.String c) when Core.Crc32.of_hex c <> None -> ()
  | _ -> fail "paper_shape \"cycles_crc\" must be 8 hex digits");
  Printf.printf "ok: archpred-parallel-v1 sim section valid (paper shape)\n"
