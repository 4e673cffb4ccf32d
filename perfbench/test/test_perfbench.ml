(* The benchmark's pure helpers: statistics, verdicts, parsers and the
   BENCHMARK.json validator. *)

open Perfbench

let float_eq = Alcotest.float 1e-9

(* Values checked against Python:
   statistics.quantiles([...], n=4) and statistics.median([...]). *)
let test_quartiles () =
  let q1, q3 = Summary.quartiles [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.check float_eq "q1 of 1..5" 1.5 q1;
  Alcotest.check float_eq "q3 of 1..5" 4.5 q3;
  let q1, q3 = Summary.quartiles [ 10.; 2.; 7.; 4. ] in
  Alcotest.check float_eq "q1 of 2,4,7,10" 2.5 q1;
  Alcotest.check float_eq "q3 of 2,4,7,10" 9.25 q3;
  let q1, q3 = Summary.quartiles [ 3.; 1. ] in
  Alcotest.check float_eq "q1 of two" 0.5 q1;
  Alcotest.check float_eq "q3 of two" 3.5 q3;
  let q1, q3 = Summary.quartiles [ 42. ] in
  Alcotest.check float_eq "q1 of one" 42. q1;
  Alcotest.check float_eq "q3 of one" 42. q3

let test_median () =
  Alcotest.check float_eq "odd" 3. (Summary.median [ 5.; 1.; 3. ]);
  Alcotest.check float_eq "even" 2.5 (Summary.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Summary.median: no samples")
    (fun () -> ignore (Summary.median []))

let test_summary () =
  let s = Summary.of_samples [ 8.; 9.; 10.; 11.; 12.; 13. ] in
  Alcotest.(check int) "sample count" 6 s.Summary.n;
  Alcotest.check float_eq "median" 10.5 s.Summary.median;
  Alcotest.check float_eq "q1" 8.75 s.Summary.q1;
  Alcotest.check float_eq "q3" 12.25 s.Summary.q3;
  Alcotest.check float_eq "relative spread" (3.5 /. 10.5) (Summary.rel_spread s)

let test_quantile () =
  let xs = [ 5.; 3.; 1.; 4.; 2. ] in
  Alcotest.check float_eq "0 is the minimum" 1. (Summary.quantile xs 0.);
  Alcotest.check float_eq "1 is the maximum" 5. (Summary.quantile xs 1.);
  Alcotest.check float_eq "0.1 interpolates" 1.4 (Summary.quantile xs 0.1);
  Alcotest.check float_eq "0.9 interpolates" 4.6 (Summary.quantile xs 0.9);
  Alcotest.check float_eq "one sample" 7. (Summary.quantile [ 7. ] 0.9)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Verdict.to_string v))
    ( = )

let test_verdicts () =
  let judge better base fresh =
    Verdict.judge ~better ~bound:0.10 ~base ~fresh
  in
  let base = [ 10.0; 10.1; 10.2; 9.9; 10.0 ] in
  Alcotest.check verdict "same" Verdict.Same
    (judge Spec.Lower base [ 10.1; 10.2; 10.0; 10.1; 10.3 ]);
  Alcotest.check verdict "worse past the bound" Verdict.Worse
    (judge Spec.Lower base [ 11.5; 11.6; 11.4; 11.5; 11.7 ]);
  Alcotest.check verdict "better" Verdict.Better
    (judge Spec.Lower base [ 8.0; 8.1; 7.9; 8.0; 8.2 ]);
  Alcotest.check verdict "direction: higher is better" Verdict.Better
    (judge Spec.Higher base [ 11.5; 11.6; 11.4; 11.5; 11.7 ]);
  Alcotest.check verdict "direction: lower throughput is worse" Verdict.Worse
    (judge Spec.Higher base [ 8.0; 8.1; 7.9; 8.0; 8.2 ]);
  let noisy = [ 7.; 10.; 13.; 9.; 12. ] in
  Alcotest.check verdict "spread wider than the bound" Verdict.Unresolved
    (judge Spec.Lower noisy [ 10.5; 11.; 10.; 11.5; 12. ]);
  Alcotest.check verdict "noisy but every run better" Verdict.Better
    (judge Spec.Lower noisy [ 5.; 6.; 4.; 6.5; 5.5 ])

let test_vmhwm () =
  let status =
    "Name:\tarchpred.exe\nState:\tS (sleeping)\nVmPeak:\t  123456 kB\n\
     VmHWM:\t   56712 kB\nVmRSS:\t   50000 kB\n"
  in
  Alcotest.(check (option int)) "peak" (Some 56712) (Parse.vmhwm_kb status);
  Alcotest.(check (option int)) "zombie has none" None
    (Parse.vmhwm_kb "Name:\tx\nState:\tZ (zombie)\n");
  Alcotest.(check (option int)) "malformed" None
    (Parse.vmhwm_kb "VmHWM:\tlots kB\n")

let test_cpu_ticks () =
  let stat =
    "4242 (archpred (x) y) S 1 4242 4242 0 -1 4194560 500 0 0 0 137 21 0 0 \
     20 0 1 0 100 200 300"
  in
  Alcotest.(check (option int)) "utime + stime" (Some 158)
    (Parse.cpu_ticks stat);
  Alcotest.(check (option int)) "truncated" None
    (Parse.cpu_ticks "1 (x) S 1 2")

let test_test_error () =
  let out =
    "training RBF cpi model for 181.mcf (n=400, trace=2000)...\n\
     p_min=1 alpha=7 centers=114 discrepancy=0.00317 (4.2s)\n\
     test error: mean=7.62% std=5.32% max=19.92% rmse=0.1100\n\
     model written to m.model\n"
  in
  Alcotest.(check (option string)) "mean as printed" (Some "7.62")
    (Parse.test_error_mean out);
  Alcotest.(check (option string)) "absent" None
    (Parse.test_error_mean "n=30 mean error 13.88%\n");
  Alcotest.(check (option string)) "not a number" None
    (Parse.test_error_mean "test error: mean=abc% std=1%\n")

let test_drain () =
  let out =
    "archpred served: listening on s.sock (SIGTERM drains, SIGHUP reloads)\n\
     drained: 1 connections, 20001 requests, 20001 answered\n\
    \  shed 0, timeouts 0, bad requests 0, protocol errors 0\n\
    \  reloads 0 ok / 0 failed\n\
    \  cache: 19489 hits, 512 misses, 0 bypasses\n\
    \  lost 0\n"
  in
  match Parse.drain_block out with
  | None -> Alcotest.fail "drain block not parsed"
  | Some d ->
      Alcotest.(check int) "requests" 20001 d.Parse.requests;
      Alcotest.(check int) "hits" 19489 d.Parse.hits;
      Alcotest.(check int) "misses" 512 d.Parse.misses;
      Alcotest.(check int) "lost" 0 d.Parse.lost;
      Alcotest.(check bool) "truncated block" true
        (Option.is_none
           (Parse.drain_block
              "drained: 1 connections, 2 requests, 2 answered\n  shed 0\n"))

let test_counters () =
  let jsonl =
    "{\"type\":\"span\",\"path\":\"served.run\",\"ns\":5}\n\
     {\"type\":\"counter\",\"name\":\"served.requests\",\"value\":300}\n\
     not json\n\
     {\"type\":\"counter\",\"name\":\"served.batches\",\"value\":7}\n"
  in
  Alcotest.(check (list (pair string int)))
    "counters" [ ("served.batches", 7); ("served.requests", 300) ]
    (Parse.counters jsonl)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Spec.valid_name n))
    [ "train_s"; "sim.minst_per_s"; "paper_bin_hot"; "p99_us"; "0x" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Spec.valid_name n))
    [ ""; "p99 us"; "a/b"; "_lead"; "é"; String.make 65 'a' ]

(* BENCHMARK.json itself: every workload and metric name must match
   [A-Za-z0-9_.-]+ and the whole file must meet the benchmark contract. *)
let test_benchmark_json () =
  match Spec.load "../../BENCHMARK.json" with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      Alcotest.(check (list string)) "no problems" [] (Spec.problems spec);
      Alcotest.(check bool) "a bad name is caught" true
        (Spec.problems
           { spec with Spec.workloads = ("bad name", "why") :: spec.Spec.workloads }
        <> [])

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "quartiles as python" `Quick test_quartiles;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "summary with count" `Quick test_summary;
          Alcotest.test_case "quiet-side quantile" `Quick test_quantile;
        ] );
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]);
      ( "parse",
        [
          Alcotest.test_case "VmHWM" `Quick test_vmhwm;
          Alcotest.test_case "cpu ticks" `Quick test_cpu_ticks;
          Alcotest.test_case "test error line" `Quick test_test_error;
          Alcotest.test_case "drain block" `Quick test_drain;
          Alcotest.test_case "metrics counters" `Quick test_counters;
        ] );
      ( "spec",
        [
          Alcotest.test_case "name pattern" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json valid" `Quick test_benchmark_json;
        ] );
    ]
