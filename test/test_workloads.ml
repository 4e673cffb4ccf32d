(* Tests for archpred.workloads: profile validation and the synthetic
   trace generator's statistical and structural guarantees. *)

module Workloads = Archpred_workloads
module Profile = Workloads.Profile
module Generator = Workloads.Generator
module Spec2000 = Workloads.Spec2000
module Trace = Archpred_sim.Trace
module Opcode = Archpred_sim.Opcode

let profile name = Option.get (Workloads.Spec2000_extra.find name)
let everything = Spec2000.all @ Workloads.Spec2000_extra.all

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let test_all_profiles_valid () =
  List.iter
    (fun (p : Profile.t) ->
      match Profile.validate p with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s invalid: %s" p.name msg)
    Spec2000.all

let test_profile_counts () =
  Alcotest.(check int) "eight benchmarks" 8 (List.length Spec2000.all)

let test_find () =
  let find = Workloads.Spec2000_extra.find in
  Alcotest.(check bool) "full name" true (find "181.mcf" <> None);
  Alcotest.(check bool) "short name" true (find "vortex" <> None);
  Alcotest.(check bool) "unknown" true (find "nosuch" = None)

let test_invalid_profile_rejected () =
  let bad = { Spec2000.mcf with Profile.load_frac = 0.9; store_frac = 0.9 } in
  match Profile.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected fraction-sum failure"

let test_region_weights_checked () =
  let bad =
    { Spec2000.mcf with Profile.hot = { Spec2000.mcf.Profile.hot with weight = 0.9 } }
  in
  match Profile.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected region-weight failure"

let test_generator_length () =
  let t = Generator.generate Spec2000.parser ~length:12_345 in
  Alcotest.(check int) "exact length" 12_345 (Trace.length t)

let test_generator_deterministic () =
  let a = Generator.generate ~seed:5 Spec2000.twolf ~length:5_000 in
  let b = Generator.generate ~seed:5 Spec2000.twolf ~length:5_000 in
  let same = ref true in
  for i = 0 to 4_999 do
    if Trace.get a i <> Trace.get b i then same := false
  done;
  Alcotest.(check bool) "identical traces" true !same

let test_generator_seed_matters () =
  let a = Generator.generate ~seed:1 Spec2000.twolf ~length:2_000 in
  let b = Generator.generate ~seed:2 Spec2000.twolf ~length:2_000 in
  let differ = ref false in
  for i = 0 to 1_999 do
    if Trace.get a i <> Trace.get b i then differ := true
  done;
  Alcotest.(check bool) "seeds differ" true !differ

let test_generator_validates () =
  List.iter
    (fun p ->
      let t = Generator.generate p ~length:8_000 in
      match Trace.validate t with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" p.Profile.name m)
    Spec2000.all

let test_generator_mix_matches_profile () =
  let p = Spec2000.mcf in
  let t = Generator.generate p ~length:60_000 in
  let frac o =
    match List.assoc_opt o (Trace.mix t) with Some f -> f | None -> 0.
  in
  let close what expected actual tol =
    if abs_float (expected -. actual) > tol then
      Alcotest.failf "%s: expected %.3f, got %.3f" what expected actual
  in
  close "loads" p.Profile.load_frac (frac Opcode.Load) 0.03;
  close "stores" p.Profile.store_frac (frac Opcode.Store) 0.02;
  close "branches" p.Profile.branch_frac (frac Opcode.Branch) 0.04

let test_generator_fp_only_in_fp_benchmarks () =
  let t = Generator.generate Spec2000.mcf ~length:20_000 in
  let fp =
    List.exists (fun (o, _) -> Opcode.uses_fp o) (Trace.mix t)
  in
  Alcotest.(check bool) "mcf has no fp" false fp;
  let t = Generator.generate Spec2000.equake ~length:20_000 in
  let fadd = List.assoc_opt Opcode.Fadd (Trace.mix t) in
  Alcotest.(check bool) "equake has fadd" true (fadd <> None)

let test_generator_addresses_in_regions () =
  let p = Spec2000.vortex in
  let t = Generator.generate p ~length:20_000 in
  for i = 0 to Trace.length t - 1 do
    if Opcode.is_memory (Trace.op t i) then begin
      let a = Trace.addr t i in
      if a < 0x1000_0000 then Alcotest.failf "address %x below data regions" a
    end
  done

let test_generator_branch_outcomes_mixed () =
  let t = Generator.generate Spec2000.crafty ~length:40_000 in
  let taken = ref 0 and total = ref 0 in
  for i = 0 to Trace.length t - 1 do
    if Trace.op t i = Opcode.Branch then begin
      incr total;
      if Trace.taken t i then incr taken
    end
  done;
  let f = float_of_int !taken /. float_of_int !total in
  Alcotest.(check bool) "taken fraction sane" true (f > 0.3 && f < 0.95)

let test_generator_jumps_always_taken () =
  let t = Generator.generate (profile "perlbmk") ~length:30_000 in
  for i = 0 to Trace.length t - 1 do
    if Trace.op t i = Opcode.Jump && not (Trace.taken t i) then
      Alcotest.fail "jump not taken"
  done

let test_generator_code_footprint () =
  let p = Spec2000.crafty in
  let t = Generator.generate p ~length:50_000 in
  let max_pc = ref 0 in
  for i = 0 to Trace.length t - 1 do
    if Trace.pc t i > !max_pc then max_pc := Trace.pc t i
  done;
  (* PCs stay within ~code_bytes of the code base *)
  Alcotest.(check bool) "footprint bounded" true
    (!max_pc - 0x0040_0000 < 2 * p.Profile.code_bytes)

let test_generator_rejects_bad_length () =
  Alcotest.check_raises "length 0"
    (Invalid_argument "Generator.generate: length <= 0") (fun () ->
      ignore (Generator.generate Spec2000.mcf ~length:0))

let prop_generator_dep_distances_valid =
  qtest "dependency distances within prefix"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let t = Generator.generate ~seed Spec2000.parser ~length:3_000 in
      let ok = ref true in
      for i = 0 to Trace.length t - 1 do
        if Trace.dep1 t i < 0 || Trace.dep1 t i > i then ok := false;
        if Trace.dep2 t i < 0 || Trace.dep2 t i > i then ok := false
      done;
      !ok)


(* ---------- Extractor (statistical simulation) ---------- *)

module Extractor = Workloads.Extractor

let test_extractor_valid_profile () =
  List.iter
    (fun p ->
      let t = Generator.generate p ~length:20_000 in
      let e = Extractor.profile_of_trace t in
      match Profile.validate e with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s clone invalid: %s" p.Profile.name m)
    Spec2000.all

let test_extractor_mix_recovered () =
  let p = Spec2000.equake in
  let t = Generator.generate p ~length:40_000 in
  let e = Extractor.profile_of_trace t in
  let close what a b tol =
    if abs_float (a -. b) > tol then
      Alcotest.failf "%s: original %.3f vs extracted %.3f" what a b
  in
  close "loads" p.Profile.load_frac e.Profile.load_frac 0.03;
  close "branches" p.Profile.branch_frac e.Profile.branch_frac 0.03;
  close "fadd" p.Profile.fadd_frac e.Profile.fadd_frac 0.03

let test_extractor_footprint_recovered () =
  let p = Spec2000.crafty in
  let t = Generator.generate p ~length:50_000 in
  let e = Extractor.profile_of_trace t in
  (* code footprint within a factor of 2 of the original *)
  let ratio =
    float_of_int e.Profile.code_bytes /. float_of_int p.Profile.code_bytes
  in
  Alcotest.(check bool) "footprint ballpark" true (ratio > 0.4 && ratio < 2.)

let test_extractor_chase_detected () =
  let t = Generator.generate Spec2000.mcf ~length:40_000 in
  let e = Extractor.profile_of_trace t in
  (* mcf's pointer chasing shows up; crafty's near-absence too *)
  let t2 = Generator.generate Spec2000.crafty ~length:40_000 in
  let e2 = Extractor.profile_of_trace t2 in
  Alcotest.(check bool) "mcf chases more than crafty" true
    (e.Profile.chase_frac > e2.Profile.chase_frac)

let test_extractor_clone_behaves () =
  (* the regenerated clone's CPI tracks the original at two machines *)
  let p = Spec2000.parser in
  let original = Generator.generate p ~length:20_000 in
  let e = Extractor.profile_of_trace original in
  let clone = Generator.generate ~seed:99 e ~length:20_000 in
  let module Batch = Archpred_sim.Batch in
  let module Cfg = Archpred_sim.Config in
  let weak =
    Cfg.make ~pipe_depth:22 ~rob_size:32 ~iq_size:12 ~lsq_size:12
      ~l2_size:(256 * 1024) ~l2_latency:18 ~il1_size:(8 * 1024)
      ~dl1_size:(8 * 1024) ~dl1_latency:4 ()
  in
  let ratio cfg =
    (Batch.cpi [| cfg |] clone).(0) /. (Batch.cpi [| cfg |] original).(0)
  in
  let r1 = ratio Cfg.default and r2 = ratio weak in
  Alcotest.(check bool) "clone within 40% at default" true
    (r1 > 0.6 && r1 < 1.67);
  Alcotest.(check bool) "clone within 40% at weak" true (r2 > 0.6 && r2 < 1.67)

let test_extractor_empty_rejected () =
  let empty = Trace.of_list [] in
  Alcotest.check_raises "empty"
    (Invalid_argument "Extractor.profile_of_trace: empty trace") (fun () ->
      ignore (Extractor.profile_of_trace empty))


(* ---------- extra profiles ---------- *)

let test_extra_profiles_valid () =
  List.iter
    (fun (p : Profile.t) ->
      match Profile.validate p with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s invalid: %s" p.name msg)
    Workloads.Spec2000_extra.all

let test_extra_find () =
  Alcotest.(check bool) "finds gcc" true
    (Workloads.Spec2000_extra.find "gcc" <> None);
  Alcotest.(check bool) "finds paper bench too" true
    (Workloads.Spec2000_extra.find "mcf" <> None);
  Alcotest.(check int) "twelve total" 12
    (List.length everything)

let test_extra_traces_generate () =
  List.iter
    (fun p ->
      let t = Generator.generate p ~length:5_000 in
      match Trace.validate t with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" p.Profile.name m)
    Workloads.Spec2000_extra.all

let test_extra_characters () =
  (* gcc has the biggest code footprint; swim is the most streaming *)
  let gcc = profile "gcc" in
  List.iter
    (fun (p : Profile.t) ->
      if p.name <> gcc.Profile.name && p.Profile.code_bytes > gcc.Profile.code_bytes
      then Alcotest.failf "%s code bigger than gcc" p.name)
    everything

let () =
  Alcotest.run "workloads"
    [
      ( "profiles",
        [
          Alcotest.test_case "all valid" `Quick test_all_profiles_valid;
          Alcotest.test_case "counts" `Quick test_profile_counts;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "invalid rejected" `Quick test_invalid_profile_rejected;
          Alcotest.test_case "region weights checked" `Quick test_region_weights_checked;
        ] );
      ( "extra_profiles",
        [
          Alcotest.test_case "valid" `Quick test_extra_profiles_valid;
          Alcotest.test_case "find" `Quick test_extra_find;
          Alcotest.test_case "traces generate" `Quick test_extra_traces_generate;
          Alcotest.test_case "characters" `Quick test_extra_characters;
        ] );
      ( "extractor",
        [
          Alcotest.test_case "valid profiles" `Quick test_extractor_valid_profile;
          Alcotest.test_case "mix recovered" `Quick test_extractor_mix_recovered;
          Alcotest.test_case "footprint recovered" `Quick test_extractor_footprint_recovered;
          Alcotest.test_case "chase detected" `Quick test_extractor_chase_detected;
          Alcotest.test_case "clone behaves" `Slow test_extractor_clone_behaves;
          Alcotest.test_case "empty rejected" `Quick test_extractor_empty_rejected;
        ] );
      ( "generator",
        [
          Alcotest.test_case "exact length" `Quick test_generator_length;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "seed matters" `Quick test_generator_seed_matters;
          Alcotest.test_case "validates" `Quick test_generator_validates;
          Alcotest.test_case "mix matches profile" `Quick test_generator_mix_matches_profile;
          Alcotest.test_case "fp segregation" `Quick test_generator_fp_only_in_fp_benchmarks;
          Alcotest.test_case "addresses in regions" `Quick test_generator_addresses_in_regions;
          Alcotest.test_case "branch outcomes mixed" `Quick test_generator_branch_outcomes_mixed;
          Alcotest.test_case "jumps taken" `Quick test_generator_jumps_always_taken;
          Alcotest.test_case "code footprint" `Quick test_generator_code_footprint;
          Alcotest.test_case "rejects bad length" `Quick test_generator_rejects_bad_length;
          prop_generator_dep_distances_valid;
        ] );
    ]
