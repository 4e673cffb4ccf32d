(* Sharded-search tests: the deterministic work-unit partition, the
   atomic claim protocol, the journal merge, and the central invariant —
   an N-shard run (N in {1, 2, 4}, with a worker killed and restarted
   mid-run via fault injection) merges to a model whose
   [Persist.to_string] is byte-identical to the single-process build, at
   1 and at 4 domains. *)

module Shard = Archpred_shard
module Plan = Shard.Plan
module Claim = Shard.Claim
module Spec = Shard.Spec
module Journal = Shard.Journal
module Worker = Shard.Worker
module Core = Archpred_core
module Pipeline = Core.Pipeline
module Build = Core.Build
module Config = Core.Config
module Persist = Core.Persist
module Response = Core.Response
module Paper_space = Core.Paper_space
module Rng = Archpred_stats.Rng
module Obs = Archpred_obs
module Fault = Archpred_fault.Fault

let with_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

let tmp_dir () =
  let path = Filename.temp_file "archpred_shard" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (_, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error (_, _, _) -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Plan                                                               *)
(* ------------------------------------------------------------------ *)

let prop name count gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let plan_partition_exact =
  prop "units partition [0, count) exactly" 200
    QCheck2.Gen.(pair (int_range 0 200) (int_range 1 17))
    (fun (count, chunk) ->
      let units = Plan.units ~stage:"s" ~count ~chunk in
      let covered = Array.make count false in
      Array.iter
        (fun (u : Plan.unit_) ->
          assert (u.Plan.lo < u.Plan.hi || count = 0);
          for i = u.Plan.lo to u.Plan.hi - 1 do
            assert (not covered.(i));
            covered.(i) <- true
          done)
        units;
      Array.for_all Fun.id covered)

let plan_name_roundtrip =
  prop "unit_name round-trips" 200
    QCheck2.Gen.(
      triple
        (oneofl [ "test"; "lhs.0"; "sim.12"; "tune.3"; "a.b.c" ])
        (int_range 0 1000) (int_range 1 50))
    (fun (stage, lo, len) ->
      let u = { Plan.stage; lo; hi = lo + len } in
      match Plan.unit_of_name (Plan.unit_name u) with
      | Some v ->
          String.equal v.Plan.stage u.Plan.stage
          && v.Plan.lo = u.Plan.lo && v.Plan.hi = u.Plan.hi
      | None -> false)

let test_plan_malformed () =
  List.iter
    (fun s -> Alcotest.(check bool) s false (Plan.unit_of_name s <> None))
    [ ""; "noseparator"; "stage.1"; "stage.a-b"; ".0-4"; "stage.0_4" ]

(* ------------------------------------------------------------------ *)
(* Claim                                                              *)
(* ------------------------------------------------------------------ *)

let test_claim_exclusive () =
  with_dir @@ fun dir ->
  Claim.init ~dir;
  Alcotest.(check bool)
    "first claim wins" true
    (Claim.claim ~dir ~name:"sim.0.0-4" ~owner:"w0");
  Alcotest.(check bool)
    "second claim loses" false
    (Claim.claim ~dir ~name:"sim.0.0-4" ~owner:"w1");
  Alcotest.(check (option string))
    "owner recorded" (Some "w0")
    (Claim.owner ~dir ~name:"sim.0.0-4");
  Claim.release ~dir ~name:"sim.0.0-4";
  Alcotest.(check bool)
    "reclaim after release" true
    (Claim.claim ~dir ~name:"sim.0.0-4" ~owner:"w1")

let test_claim_release_incomplete () =
  with_dir @@ fun dir ->
  Claim.init ~dir;
  assert (Claim.claim ~dir ~name:"sim.0.0-4" ~owner:"dead");
  assert (Claim.claim ~dir ~name:"sim.0.4-8" ~owner:"dead");
  assert (Claim.claim ~dir ~name:"sim.0.8-12" ~owner:"alive");
  (* Unit 0-4 is committed, 4-8 is not; only the dead owner's
     incomplete claim must go. *)
  Claim.release_incomplete ~dir ~owner:"dead" ~complete:(fun ~stage:_ ~lo ~hi:_ ->
      lo = 0);
  Alcotest.(check (option string))
    "complete claim kept" (Some "dead")
    (Claim.owner ~dir ~name:"sim.0.0-4");
  Alcotest.(check (option string))
    "incomplete claim released" None
    (Claim.owner ~dir ~name:"sim.0.4-8");
  Alcotest.(check (option string))
    "other owner kept" (Some "alive")
    (Claim.owner ~dir ~name:"sim.0.8-12")

(* ------------------------------------------------------------------ *)
(* Spec                                                               *)
(* ------------------------------------------------------------------ *)

let spec ?(stream_refit = false) ?(mode = Spec.Train) () =
  {
    Spec.benchmark = "synthetic:smooth";
    metric = Response.Cpi;
    seed = 11;
    trace_length = 2000;
    sample_size = 12;
    test_n = 6;
    lhs_candidates = 5;
    criterion = Archpred_rbf.Criteria.Aicc;
    p_min_grid = [ 1; 2 ];
    alpha_grid = [ 5.; 7. ];
    shard_unit = 3;
    stream_refit;
    refit_full_every = 0;
    mode;
  }

let test_spec_roundtrip () =
  with_dir @@ fun dir ->
  let s =
    spec ~mode:(Spec.Accuracy { sizes = [ 8; 12 ]; target_mean_pct = 0.5 }) ()
  in
  Spec.save ~dir s;
  let s' = Spec.load ~dir in
  Alcotest.(check string)
    "fingerprint survives the round trip" (Spec.fingerprint s)
    (Spec.fingerprint s');
  Alcotest.(check string)
    "canonical serialisation survives"
    (Obs.Json.to_string (Spec.to_json s))
    (Obs.Json.to_string (Spec.to_json s'))

let test_spec_rejects_invalid () =
  let rejects s =
    match Spec.validate s with
    | _ -> Alcotest.fail "expected Invalid_input"
    | exception Obs.Error.Archpred (Obs.Error.Invalid_input _) -> ()
  in
  rejects { (spec ()) with Spec.sample_size = 1 };
  rejects { (spec ()) with Spec.p_min_grid = [] };
  rejects { (spec ()) with Spec.shard_unit = 0 };
  rejects
    {
      (spec ()) with
      Spec.mode = Spec.Accuracy { sizes = []; target_mean_pct = 1. };
    };
  rejects
    {
      (spec ()) with
      Spec.test_n = 0;
      mode = Spec.Accuracy { sizes = [ 8 ]; target_mean_pct = 1. };
    }

(* ------------------------------------------------------------------ *)
(* Journal                                                            *)
(* ------------------------------------------------------------------ *)

let test_journal_commit_and_merge () =
  with_dir @@ fun dir ->
  Journal.init ~dir;
  let j = Journal.open_ ~dir ~worker:"w0" ~fingerprint:"fp" in
  Journal.append_result j ~stage:"sim.0" ~index:0 ~value:1.5;
  Journal.append_result j ~stage:"sim.0" ~index:1 ~value:(-0.25);
  Journal.commit_unit j ~stage:"sim.0" ~lo:0 ~hi:2;
  (* Appended but never committed: must not merge. *)
  Journal.append_result j ~stage:"sim.0" ~index:2 ~value:9.;
  Journal.close j;
  let scan = Journal.scan_dir ~dir ~fingerprint:"fp" in
  Alcotest.(check bool)
    "unit committed" true
    (Journal.unit_complete scan ~stage:"sim.0" ~lo:0 ~hi:2);
  Alcotest.(check (option (float 0.)))
    "value 0" (Some 1.5)
    (Journal.value scan ~stage:"sim.0" ~index:0);
  Alcotest.(check (option (float 0.)))
    "value 1" (Some (-0.25))
    (Journal.value scan ~stage:"sim.0" ~index:1);
  Alcotest.(check (option (float 0.)))
    "uncommitted result dropped" None
    (Journal.value scan ~stage:"sim.0" ~index:2)

let test_journal_fingerprint_mismatch () =
  with_dir @@ fun dir ->
  Journal.init ~dir;
  let j = Journal.open_ ~dir ~worker:"w0" ~fingerprint:"fp" in
  Journal.close j;
  match Journal.scan_dir ~dir ~fingerprint:"other" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Obs.Error.Archpred (Obs.Error.Parse_error _) -> ()

(* Truncate the journal at every byte boundary: the scan must never
   crash, and merged values must always be a committed prefix. *)
let test_journal_torn_tail () =
  with_dir @@ fun dir ->
  Journal.init ~dir;
  let j = Journal.open_ ~dir ~worker:"w0" ~fingerprint:"fp" in
  for i = 0 to 5 do
    Journal.append_result j ~stage:"s" ~index:i ~value:(float_of_int i)
  done;
  Journal.commit_unit j ~stage:"s" ~lo:0 ~hi:3;
  Journal.commit_unit j ~stage:"s" ~lo:3 ~hi:6;
  Journal.close j;
  let path = Filename.concat dir (Filename.concat "journals" "w0.journal") in
  let full = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length full in
  for cut = 0 to len do
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub full 0 cut));
    let scan = Journal.scan_dir ~dir ~fingerprint:"fp" in
    let first_ok = Journal.unit_complete scan ~stage:"s" ~lo:0 ~hi:3 in
    let second_ok = Journal.unit_complete scan ~stage:"s" ~lo:3 ~hi:6 in
    if second_ok && not first_ok then
      Alcotest.fail "later unit merged without the earlier one";
    for i = 0 to 5 do
      let committed = if i < 3 then first_ok else second_ok in
      match Journal.value scan ~stage:"s" ~index:i with
      | Some v ->
          if not committed then
            Alcotest.failf "cut=%d: uncommitted index %d merged" cut i;
          Alcotest.(check (float 0.)) "merged bits" (float_of_int i) v
      | None ->
          if committed then
            Alcotest.failf "cut=%d: committed index %d lost" cut i
    done
  done

let test_journal_first_wins_across_workers () =
  with_dir @@ fun dir ->
  Journal.init ~dir;
  (* Two workers commit the same unit; filename order (w0 < w1) decides,
     and since real values are deterministic the duplicate is
     bit-identical anyway — here we use different values to observe the
     canonical choice. *)
  let j0 = Journal.open_ ~dir ~worker:"w0" ~fingerprint:"fp" in
  let j1 = Journal.open_ ~dir ~worker:"w1" ~fingerprint:"fp" in
  Journal.append_result j1 ~stage:"s" ~index:0 ~value:2.;
  Journal.commit_unit j1 ~stage:"s" ~lo:0 ~hi:1;
  Journal.append_result j0 ~stage:"s" ~index:0 ~value:1.;
  Journal.commit_unit j0 ~stage:"s" ~lo:0 ~hi:1;
  Journal.close j0;
  Journal.close j1;
  let scan = Journal.scan_dir ~dir ~fingerprint:"fp" in
  Alcotest.(check (option (float 0.)))
    "w0 wins by filename order" (Some 1.)
    (Journal.value scan ~stage:"s" ~index:0)

(* ------------------------------------------------------------------ *)
(* Total readers: any bytes give a value or a typed error              *)
(* ------------------------------------------------------------------ *)

let typed f =
  match f () with
  | _ -> true
  | exception Obs.Error.Archpred _ -> true

let byte_soup =
  QCheck2.Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_range 0 256))

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* The bytes of a small committed journal. *)
let committed_journal () =
  with_dir @@ fun dir ->
  Journal.init ~dir;
  let j = Journal.open_ ~dir ~worker:"w0" ~fingerprint:"fp" in
  for i = 0 to 3 do
    Journal.append_result j ~stage:"s" ~index:i ~value:(float_of_int i /. 3.)
  done;
  Journal.commit_unit j ~stage:"s" ~lo:0 ~hi:4;
  Journal.close j;
  let path = Filename.concat dir (Filename.concat "journals" "w0.journal") in
  In_channel.with_open_bin path In_channel.input_all

(* The journal readers on [bytes] in a journal's place: the merge, and
   the reopen for append. *)
let journal_total bytes =
  with_dir @@ fun dir ->
  Journal.init ~dir;
  let path = Filename.concat dir (Filename.concat "journals" "w0.journal") in
  write_file path bytes;
  typed (fun () -> Journal.scan_dir ~dir ~fingerprint:"fp")
  && typed (fun () ->
         Journal.close (Journal.open_ ~dir ~worker:"w0" ~fingerprint:"fp"))

let test_journal_every_prefix () =
  let full = committed_journal () in
  for cut = 0 to String.length full do
    if not (journal_total (String.sub full 0 cut)) then
      Alcotest.failf "journal prefix %d raised an untyped exception" cut
  done

let journal_byte_soup =
  prop "journal: byte soup gives a scan or a typed error" 300 byte_soup
    journal_total

let spec_total bytes =
  with_dir @@ fun dir ->
  write_file (Filename.concat dir "spec.json") bytes;
  typed (fun () -> Spec.load ~dir)

let test_spec_every_prefix () =
  with_dir @@ fun dir ->
  Spec.save ~dir (spec ());
  let full =
    In_channel.with_open_bin (Filename.concat dir "spec.json")
      In_channel.input_all
  in
  for cut = 0 to String.length full do
    if not (spec_total (String.sub full 0 cut)) then
      Alcotest.failf "spec prefix %d raised an untyped exception" cut
  done

let spec_byte_soup =
  prop "spec: byte soup gives a spec or a typed error" 300 byte_soup spec_total

(* ------------------------------------------------------------------ *)
(* End-to-end: N shards vs single process                             *)
(* ------------------------------------------------------------------ *)

(* The single-process reference, consuming the root generator exactly as
   the sharded stages do: test points first, then training. *)
let reference_train ?(domains = 1) (s : Spec.t) =
  let rng = Rng.create s.Spec.seed in
  let test = Paper_space.test_points rng ~n:s.Spec.test_n in
  let response = Spec.response s in
  let actual = Array.map response.Response.eval test in
  let config =
    Spec.config s |> Config.with_rng rng |> Config.with_domains domains
  in
  match s.Spec.mode with
  | Spec.Train ->
      (Build.train ~config ~space:Paper_space.space ~response (), [])
  | Spec.Accuracy { sizes; target_mean_pct } ->
      let h =
        Build.build_to_accuracy ~config ~space:Paper_space.space ~response
          ~sizes ~test_points:test ~test_responses:actual ~target_mean_pct ()
      in
      (h.Build.final.Build.trained, h.Build.steps)

(* Drive [workers] in-process worker loops concurrently (one domain
   each) against a shared run directory, then merge and reassemble. *)
let sharded_outcome ?(workers = 2) (s : Spec.t) =
  with_dir @@ fun dir ->
  Spec.save ~dir s;
  Claim.init ~dir;
  Journal.init ~dir;
  let doms =
    List.init workers (fun k ->
        Domain.spawn (fun () ->
            Worker.run ~dir ~id:(Printf.sprintf "w%d" k) ~poll:0.002 ()))
  in
  List.iter Domain.join doms;
  let scan = Journal.scan_dir ~dir ~fingerprint:(Spec.fingerprint s) in
  Pipeline.assemble (Spec.pipeline s) (Journal.stage_values scan)

let model (trained : Build.trained) = Persist.to_string trained.Build.predictor

let test_shards_match_single_process () =
  let s = spec () in
  let reference = model (fst (reference_train ~domains:1 s)) in
  Alcotest.(check string)
    "reference stable at 4 domains" reference
    (model (fst (reference_train ~domains:4 s)));
  List.iter
    (fun workers ->
      let outcome = sharded_outcome ~workers s in
      Alcotest.(check string)
        (Printf.sprintf "%d-shard run is bit-identical" workers)
        reference
        (model outcome.Pipeline.final))
    [ 1; 2; 4 ]

let test_shards_match_accuracy_schedule () =
  let s =
    spec ~mode:(Spec.Accuracy { sizes = [ 8; 12 ]; target_mean_pct = 0. }) ()
  in
  let ref_trained, ref_steps = reference_train ~domains:1 s in
  let outcome = sharded_outcome ~workers:2 s in
  Alcotest.(check string)
    "final model bit-identical" (model ref_trained)
    (model outcome.Pipeline.final);
  Alcotest.(check int)
    "same number of steps" (List.length ref_steps)
    (List.length outcome.Pipeline.steps);
  List.iter2
    (fun (a : Build.step) (b : Build.step) ->
      Alcotest.(check int) "step size" a.Build.size b.Build.size;
      Alcotest.(check string)
        "step model bit-identical" (model a.Build.trained)
        (model b.Build.trained))
    ref_steps outcome.Pipeline.steps

let test_shards_match_stream_refit () =
  let s =
    spec ~stream_refit:true
      ~mode:(Spec.Accuracy { sizes = [ 8; 12 ]; target_mean_pct = 0. })
      ()
  in
  let ref_trained, _ = reference_train ~domains:1 s in
  Alcotest.(check string)
    "stream reference stable at 4 domains"
    (model ref_trained)
    (model (fst (reference_train ~domains:4 s)));
  let outcome = sharded_outcome ~workers:2 s in
  Alcotest.(check string)
    "streamed sharded model bit-identical" (model ref_trained)
    (model outcome.Pipeline.final)

(* Kill one worker mid-unit (injected fault after it has claimed a unit),
   release its claims the way the coordinator does, run a replacement
   under a fresh id, and check the merged model is untouched. *)
let crash_and_recover (s : Spec.t) ~site ~after =
  with_faults @@ fun () ->
  with_dir @@ fun dir ->
  Spec.save ~dir s;
  Claim.init ~dir;
  Journal.init ~dir;
  let fingerprint = Spec.fingerprint s in
  Fault.arm ~site ~after ();
  (match Worker.run ~dir ~id:"w0" ~poll:0.002 () with
  | () -> Alcotest.fail "fault did not fire"
  | exception Fault.Injected _ -> ());
  Fault.disarm site;
  Alcotest.(check bool) "the casualty hit the site" true (Fault.hits site > 0);
  (* Coordinator recovery: release the dead worker's incomplete claims
     so the replacement can pick the unit up. *)
  let scan = Journal.scan_dir ~dir ~fingerprint in
  Claim.release_incomplete ~dir ~owner:"w0" ~complete:(fun ~stage ~lo ~hi ->
      Journal.unit_complete scan ~stage ~lo ~hi);
  Worker.run ~dir ~id:"w0.r1" ~poll:0.002 ();
  let scan = Journal.scan_dir ~dir ~fingerprint in
  Pipeline.assemble (Spec.pipeline s) (Journal.stage_values scan)

let test_crash_mid_unit_recovers () =
  let s = spec () in
  let reference = model (fst (reference_train s)) in
  List.iter
    (fun (site, after) ->
      let outcome = crash_and_recover s ~site ~after in
      Alcotest.(check string)
        (Printf.sprintf "recovered model identical (%s after %d)" site after)
        reference
        (model outcome.Pipeline.final))
    [ ("shard.unit", 2); ("shard.append", 5); ("shard.claim", 3) ]

(* A search's build draws no test points, so its spec has [test_n = 0]:
   the run must assemble the model [Build.train] gives on a generator
   nothing else has drawn from. *)
let test_no_test_points () =
  let s = { (spec ()) with Spec.test_n = 0 } in
  let config =
    Spec.config s |> Config.with_rng (Rng.create s.Spec.seed)
    |> Config.with_domains 1
  in
  let reference =
    Build.train ~config ~space:Paper_space.space ~response:(Spec.response s) ()
  in
  Alcotest.(check string)
    "test_n = 0 run is bit-identical" (model reference)
    (model (sharded_outcome ~workers:1 s).Pipeline.final)

(* A lone worker reads the run directory once, however finely the run
   is cut into units. *)
let test_scans_flat_in_units () =
  let scans_and_units shard_unit =
    with_dir @@ fun dir ->
    Spec.save ~dir { (spec ()) with Spec.shard_unit };
    let obs = Obs.create () in
    Worker.run ~obs ~dir ~id:"w0" ();
    (Obs.counter obs "shard.scans", Obs.counter obs "shard.units_done")
  in
  let coarse_scans, coarse_units = scans_and_units 6 in
  let fine_scans, fine_units = scans_and_units 1 in
  Alcotest.(check bool)
    "finer units, more of them" true (fine_units > 2 * coarse_units);
  Alcotest.(check int) "one scan, coarse" 1 coarse_scans;
  Alcotest.(check int) "one scan, fine" 1 fine_scans

let () =
  Alcotest.run "shard"
    [
      ( "plan",
        [
          plan_partition_exact;
          plan_name_roundtrip;
          Alcotest.test_case "malformed names" `Quick test_plan_malformed;
        ] );
      ( "claim",
        [
          Alcotest.test_case "exclusive" `Quick test_claim_exclusive;
          Alcotest.test_case "release incomplete" `Quick
            test_claim_release_incomplete;
        ] );
      ( "spec",
        [
          Alcotest.test_case "round trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "rejects invalid" `Quick test_spec_rejects_invalid;
          Alcotest.test_case "every prefix is typed" `Quick
            test_spec_every_prefix;
          spec_byte_soup;
        ] );
      ( "journal",
        [
          Alcotest.test_case "commit and merge" `Quick
            test_journal_commit_and_merge;
          Alcotest.test_case "fingerprint mismatch" `Quick
            test_journal_fingerprint_mismatch;
          Alcotest.test_case "torn tail at every byte" `Quick
            test_journal_torn_tail;
          Alcotest.test_case "first wins canonically" `Quick
            test_journal_first_wins_across_workers;
          Alcotest.test_case "every prefix is typed" `Quick
            test_journal_every_prefix;
          journal_byte_soup;
          Alcotest.test_case "one scan per lone worker" `Quick
            test_scans_flat_in_units;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "1/2/4 shards vs single process" `Quick
            test_shards_match_single_process;
          Alcotest.test_case "accuracy schedule" `Quick
            test_shards_match_accuracy_schedule;
          Alcotest.test_case "stream refit" `Quick
            test_shards_match_stream_refit;
          Alcotest.test_case "crash mid-unit recovers" `Quick
            test_crash_mid_unit_recovers;
          Alcotest.test_case "no test points" `Quick test_no_test_points;
        ] );
    ]
