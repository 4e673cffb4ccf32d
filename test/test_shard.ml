(* Run-directory tests: the deterministic work-unit partition, the spec,
   the journal merge, and the central invariant — a checkpointed run (at
   1, 2 and 4 domains, or killed mid-unit via fault injection and rerun)
   merges to a model whose [Persist.to_string] is byte-identical to the
   single-process build, at 1 and at 4 domains. *)

module Shard = Archpred_shard
module Plan = Shard.Plan
module Spec = Shard.Spec
module Journal = Shard.Journal
module Coordinator = Shard.Coordinator
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

(* ------------------------------------------------------------------ *)
(* Spec                                                               *)
(* ------------------------------------------------------------------ *)

let spec ?(nested = false) ?(mode = Spec.Train) () =
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
    nested;
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

(* A run directory an older archpred wrote: [spec ~nested:true] with an
   accuracy schedule, as version 1 serialised it.  Its nested steps
   tuned by rank-1 refit, so resuming it here would give another model:
   both the loader and a run on the directory must refuse it with the
   typed error. *)
let version_1_spec =
  {|{"format":"archpred-shard-spec","version":1,"benchmark":"synthetic:smooth","metric":"cpi","seed":11,"trace_length":2000,"sample_size":12,"test_n":6,"lhs_candidates":5,"criterion":"aicc","p_min_grid":[1,2],"alpha_grid":["0x1.4p+2","0x1.cp+2"],"shard_unit":3,"stream_refit":true,"refit_full_every":0,"mode":"accuracy","sizes":[8,12],"target_mean_pct":"0x0p+0"}|}

let test_spec_version_1_refused () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "spec.json" in
  write_file path (version_1_spec ^ "\n");
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: a version-1 spec was accepted" what
    | exception
        Obs.Error.Archpred
          (Obs.Error.Parse_error { what = "unsupported spec version"; _ }) ->
        ()
  in
  refused "Spec.load" (fun () -> Spec.load ~dir);
  let s =
    spec ~nested:true
      ~mode:(Spec.Accuracy { sizes = [ 8; 12 ]; target_mean_pct = 0. })
      ()
  in
  refused "Coordinator.run" (fun () ->
      Coordinator.run ~dir ~spec:s ~domains:1 ());
  Alcotest.(check string)
    "spec.json untouched" (version_1_spec ^ "\n")
    (In_channel.with_open_bin path In_channel.input_all);
  Alcotest.(check bool)
    "no journal written" false
    (Sys.file_exists (Filename.concat dir "journals"))

(* The refusal names the file it refuses, as the fingerprint refusal
   names the run directory, from [Spec.load] and from a resume alike. *)
let test_spec_refusal_names_file () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "spec.json" in
  write_file path (version_1_spec ^ "\n");
  let names_file what f =
    match f () with
    | _ -> Alcotest.failf "%s: a version-1 spec was accepted" what
    | exception Obs.Error.Archpred (Obs.Error.Parse_error { where; _ } as e) ->
        Alcotest.(check string) what path where;
        Alcotest.(check string)
          (what ^ " message")
          (path ^ ": line 1: unsupported spec version")
          (Obs.Error.to_string e)
  in
  names_file "Spec.load" (fun () -> Spec.load ~dir);
  names_file "Coordinator.run" (fun () ->
      Coordinator.run ~dir ~spec:(spec ()) ~domains:1 ())

(* ------------------------------------------------------------------ *)
(* End-to-end: run directory vs single process                       *)
(* ------------------------------------------------------------------ *)

(* The single-process reference, consuming the root generator exactly as
   a run directory does: test points first, then training. *)
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

(* What [archpred train --checkpoint DIR] runs, at [domains], in a
   fresh run directory. *)
let checkpointed ?obs ?(domains = 1) (s : Spec.t) =
  with_dir @@ fun dir ->
  (Coordinator.run ?obs ~dir ~spec:s ~domains ()).Coordinator.result

let model (trained : Build.trained) = Persist.to_string trained.Build.predictor

let test_domains_match_single_process () =
  let s = spec () in
  let reference = model (fst (reference_train ~domains:1 s)) in
  Alcotest.(check string)
    "reference stable at 4 domains" reference
    (model (fst (reference_train ~domains:4 s)));
  List.iter
    (fun domains ->
      let outcome = checkpointed ~domains s in
      Alcotest.(check string)
        (Printf.sprintf "run directory at %d domains is bit-identical" domains)
        reference
        (model outcome.Pipeline.final))
    [ 1; 2; 4 ]

let test_accuracy_schedule () =
  let s =
    spec ~mode:(Spec.Accuracy { sizes = [ 8; 12 ]; target_mean_pct = 0. }) ()
  in
  let ref_trained, ref_steps = reference_train ~domains:1 s in
  let outcome = checkpointed ~domains:2 s in
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

let test_nested_schedule () =
  let s =
    spec ~nested:true
      ~mode:(Spec.Accuracy { sizes = [ 8; 12 ]; target_mean_pct = 0. })
      ()
  in
  let ref_trained, _ = reference_train ~domains:1 s in
  Alcotest.(check string)
    "nested reference stable at 4 domains"
    (model ref_trained)
    (model (fst (reference_train ~domains:4 s)));
  let outcome = checkpointed ~domains:2 s in
  Alcotest.(check string)
    "nested run-directory model bit-identical" (model ref_trained)
    (model outcome.Pipeline.final)

(* Kill the run mid-unit (an injected fault at [site]), rerun it on the
   same directory, and check the merged model is untouched. *)
let crash_and_recover (s : Spec.t) ~site ~after =
  with_faults @@ fun () ->
  with_dir @@ fun dir ->
  Fault.arm ~site ~after ();
  (match Coordinator.run ~dir ~spec:s ~domains:1 () with
  | _ -> Alcotest.fail "fault did not fire"
  | exception Fault.Injected _ -> ());
  Fault.disarm site;
  Alcotest.(check bool) "the casualty hit the site" true (Fault.hits site > 0);
  (Coordinator.run ~dir ~spec:s ~domains:1 ()).Coordinator.result

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
    [ ("shard.unit", 2); ("shard.append", 5) ]

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
    (model (checkpointed s).Pipeline.final)

(* The worker reads the run directory once, however finely the run is
   cut into units. *)
let test_scans_flat_in_units () =
  let scans_and_units shard_unit =
    let obs = Obs.create () in
    ignore (checkpointed ~obs { (spec ()) with Spec.shard_unit });
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
        ] );
      ( "spec",
        [
          Alcotest.test_case "round trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "rejects invalid" `Quick test_spec_rejects_invalid;
          Alcotest.test_case "every prefix is typed" `Quick
            test_spec_every_prefix;
          spec_byte_soup;
          Alcotest.test_case "version 1 refused" `Quick
            test_spec_version_1_refused;
          Alcotest.test_case "version 1 refusal names the file" `Quick
            test_spec_refusal_names_file;
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
          Alcotest.test_case "1/2/4 domains vs single process" `Quick
            test_domains_match_single_process;
          Alcotest.test_case "accuracy schedule" `Quick test_accuracy_schedule;
          Alcotest.test_case "nested schedule" `Quick test_nested_schedule;
          Alcotest.test_case "crash mid-unit recovers" `Quick
            test_crash_mid_unit_recovers;
          Alcotest.test_case "no test points" `Quick test_no_test_points;
        ] );
    ]
