(* Tests for archpred.experiments: scale parsing, context caching, registry
   coverage, and smoke runs of the cheap experiments. *)

module E = Archpred_experiments
module Scale = E.Scale
module Context = E.Context
module Registry = E.Registry

let test_scale_of_string () =
  Alcotest.(check bool) "small" true (Scale.of_string "small" = Some Scale.Small);
  Alcotest.(check bool) "full" true (Scale.of_string "full" = Some Scale.Full);
  Alcotest.(check bool) "junk" true (Scale.of_string "junk" = None)

let test_scale_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "roundtrip" true
        (Scale.of_string (Scale.to_string s) = Some s))
    [ Scale.Small; Scale.Medium; Scale.Full ]

let test_scale_monotone () =
  Alcotest.(check bool) "trace lengths grow" true
    (Scale.trace_length Scale.Small < Scale.trace_length Scale.Medium
    && Scale.trace_length Scale.Medium < Scale.trace_length Scale.Full);
  Alcotest.(check bool) "table sizes grow" true
    (Scale.table_sample_size Scale.Small < Scale.table_sample_size Scale.Full)

let test_scale_ablation_size () =
  Alcotest.(check bool) "ablation below table size" true
    (Scale.ablation_sample_size Scale.Full < Scale.table_sample_size Scale.Full)

let test_scale_paper_sizes () =
  Alcotest.(check int) "paper table size" 200 (Scale.table_sample_size Scale.Full);
  Alcotest.(check bool) "paper sweep includes 200" true
    (List.mem 200 (Scale.sample_sizes Scale.Full));
  Alcotest.(check int) "50 test points" 50 (Scale.test_points Scale.Full)

let test_registry_covers_paper () =
  List.iter
    (fun id ->
      match Registry.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "missing experiment %s" id)
    [
      "table1"; "table2"; "table3"; "table4"; "table5";
      "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7";
      "ablation_sampling"; "ablation_centers"; "ablation_criterion";
      "ablation_alpha"; "ext_firstorder"; "ext_power"; "ext_statsim";
      "ext_adaptive"; "ext_modelzoo"; "ext_sensitivity";
    ]

let test_registry_find_unknown () =
  Alcotest.(check bool) "unknown" true (Registry.find "table99" = None)

(* The paper's twelve come first, in paper order, then the ablations
   and extensions. *)
let test_registry_paper_subset () =
  Alcotest.(check (list string))
    "paper entries lead"
    [ "table1"; "table2"; "table3"; "table4"; "table5";
      "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7" ]
    (List.filteri (fun i _ -> i < 12)
       (List.map (fun (e : Registry.entry) -> e.Registry.id) Registry.all));
  Alcotest.(check int) "22 total" 22 (List.length Registry.all)

let null_formatter =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_context_caches_responses () =
  let ctx = Context.create ~scale:Scale.Small () in
  let r1 = Context.response ctx Archpred_workloads.Spec2000.mcf in
  let r2 = Context.response ctx Archpred_workloads.Spec2000.mcf in
  Alcotest.(check bool) "same response object" true (r1 == r2)

let test_context_test_set_shared_points () =
  let ctx = Context.create ~scale:Scale.Small () in
  let p1, _ = Context.test_set ctx Archpred_workloads.Spec2000.equake in
  let p2, _ = Context.test_set ctx
      (Option.get (Archpred_workloads.Spec2000_extra.find "ammp"))
  in
  Alcotest.(check bool) "points shared across benchmarks" true (p1 == p2)

let test_cheap_experiments_run () =
  let ctx = Context.create ~scale:Scale.Small () in
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e -> e.Registry.run ctx null_formatter
      | None -> Alcotest.failf "missing %s" id)
    [ "table1"; "table2"; "fig2" ]

let () =
  Alcotest.run "experiments"
    [
      ( "scale",
        [
          Alcotest.test_case "of_string" `Quick test_scale_of_string;
          Alcotest.test_case "roundtrip" `Quick test_scale_roundtrip;
          Alcotest.test_case "monotone" `Quick test_scale_monotone;
          Alcotest.test_case "paper sizes" `Quick test_scale_paper_sizes;
          Alcotest.test_case "ablation size" `Quick test_scale_ablation_size;
        ] );
      ( "registry",
        [
          Alcotest.test_case "covers paper" `Quick test_registry_covers_paper;
          Alcotest.test_case "unknown id" `Quick test_registry_find_unknown;
          Alcotest.test_case "paper subset" `Quick test_registry_paper_subset;
        ] );
      ( "context",
        [
          Alcotest.test_case "caches responses" `Quick test_context_caches_responses;
          Alcotest.test_case "shares test points" `Quick test_context_test_set_shared_points;
        ] );
      ( "smoke",
        [ Alcotest.test_case "cheap experiments" `Slow test_cheap_experiments_run ] );
    ]
