(* The benchmark harness.

   Two layers, matching deliverable (d) of DESIGN.md:

   1. The *reproduction harness*: running this executable regenerates every
      table and figure of the paper's evaluation (plus the ablations in
      DESIGN.md), printing measured rows next to the published ones.
      Experiment ids can be given on the command line to run a subset.

   2. A Bechamel micro-benchmark per table/figure: the computational kernel
      each experiment leans on (simulation, sampling, discrepancy, tree
      construction, center selection, ...), timed precisely.

   Usage:
     bench/main.exe                 run experiments (ARCHPRED_SCALE) + micro
     bench/main.exe table3 fig7     run the named experiments only
     bench/main.exe --micro         run only the micro-benchmarks
     bench/main.exe --sim           simulation-engine record (paper shape)
     bench/main.exe --shard         sharded-search speedup record
     bench/main.exe --paper         run only the paper's tables and figures
     bench/main.exe --trace         print a span-tree summary after the runs
     bench/main.exe --metrics FILE  stream observability events as JSON lines
*)

module Experiments = Archpred_experiments
module Core = Archpred_core
module Shard = Archpred_shard
module Design = Archpred_design
module Stats = Archpred_stats
module Rbf = Archpred_rbf
module Tree = Archpred_regtree.Tree
module Linreg = Archpred_linreg
module Ils = Archpred_linalg.Incremental_ls

(* ------------------------------------------------------------------ *)
(* Micro-benchmark fixtures: small, deterministic work items.          *)
(* ------------------------------------------------------------------ *)

let fixture_rng () = Stats.Rng.create 7

let fixture_trace =
  lazy
    (Archpred_workloads.Generator.generate ~seed:7
       Archpred_workloads.Spec2000.mcf ~length:5_000)

let fixture_sample =
  lazy
    (let rng = fixture_rng () in
     Design.Lhs.sample rng Core.Paper_space.space ~n:90)

let fixture_responses =
  lazy
    (let resp = Core.Response.synthetic_smooth ~dim:9 in
     Array.map resp.Core.Response.eval (Lazy.force fixture_sample))

let fixture_tree =
  lazy
    (Tree.build ~p_min:1 ~dim:9 ~points:(Lazy.force fixture_sample)
       ~responses:(Lazy.force fixture_responses) ())

let fixture_sample_256 =
  lazy
    (let rng = Stats.Rng.create 11 in
     Design.Lhs.sample rng Core.Paper_space.space ~n:256)

(* Full RBF design matrix over the tree candidates, plus a mid-size base
   subset and one extra column: the unit of work of the selection walk. *)
let fixture_selection =
  lazy
    (let tree = Lazy.force fixture_tree in
     let candidates = Rbf.Tree_centers.of_tree ~alpha:7. tree in
     let centers = Array.map (fun c -> c.Rbf.Tree_centers.center) candidates in
     let design =
       Rbf.Network.design_matrix centers (Lazy.force fixture_sample)
     in
     let responses = Lazy.force fixture_responses in
     let m = Array.length candidates in
     let base = List.init (min 12 (m - 1)) Fun.id in
     let extra = min (m - 1) 20 in
     (design, responses, base, extra))

let fixture_predictor =
  lazy
    (let tree = Lazy.force fixture_tree in
     let candidates = Rbf.Tree_centers.of_tree ~alpha:7. tree in
     let selection =
       Rbf.Selection.select ~tree ~candidates
         ~points:(Lazy.force fixture_sample)
         ~responses:(Lazy.force fixture_responses)
         ()
     in
     Core.Predictor.make ~space:Core.Paper_space.space
       ~network:selection.Rbf.Selection.network ~tree ~p_min:1 ~alpha:7. ())

(* One micro-benchmark per table/figure: the kernel that dominates the
   experiment's cost. *)
let micro_tests =
  [
    ( "table1_space_decode",
      fun () ->
        let p = Array.make 9 0.5 in
        ignore (Design.Space.decode Core.Paper_space.space p) );
    ( "table2_test_point_draw",
      let rng = fixture_rng () in
      fun () -> ignore (Core.Paper_space.test_points rng ~n:50) );
    ( "table3_simulate_5k_insts",
      let plan = Archpred_sim.Batch.plan (Lazy.force fixture_trace) in
      fun () ->
        ignore
          (Archpred_sim.Batch.run_plan ~domains:1 plan
             [| Archpred_sim.Config.default |]) );
    ( "table4_tune_grid_cell",
      let tree = Lazy.force fixture_tree in
      let points = Lazy.force fixture_sample in
      let responses = Lazy.force fixture_responses in
      fun () ->
        let candidates = Rbf.Tree_centers.of_tree ~alpha:7. tree in
        ignore (Rbf.Selection.select ~tree ~candidates ~points ~responses ())
    );
    ( "table5_tree_build",
      let points = Lazy.force fixture_sample in
      let responses = Lazy.force fixture_responses in
      fun () -> ignore (Tree.build ~p_min:1 ~dim:9 ~points ~responses ()) );
    ( "fig1_config_decode",
      fun () ->
        let p = Array.make 9 0.5 in
        ignore (Core.Paper_space.to_config p) );
    ( "fig2_l2star_discrepancy_n90",
      let sample = Lazy.force fixture_sample in
      fun () -> ignore (Design.Discrepancy.l2_star sample) );
    ( "fig3_network_eval",
      let predictor = Lazy.force fixture_predictor in
      let p = Array.make 9 0.5 in
      fun () -> ignore (Core.Predictor.predict predictor p) );
    (* The same model through the batched kernel, 256 points per run:
       divide by 256 for the per-point figure the serve report tracks. *)
    ( "fig3_network_eval_batch256",
      let predictor = Lazy.force fixture_predictor in
      let rng = Stats.Rng.create 17 in
      let points =
        Array.init 256 (fun _ -> Array.init 9 (fun _ -> Stats.Rng.unit_float rng))
      in
      fun () -> ignore (Core.Predictor.predict_batch predictor points) );
    (* A warm memo hit: the short-circuit path serving traffic sees. *)
    ( "serve_memo_hit",
      let predictor = Lazy.force fixture_predictor in
      let cache =
        Core.Memo.create ~capacity:16 ~space:Core.Paper_space.space
          ~sample_size:90 ()
      in
      let p =
        Design.Space.snap Core.Paper_space.space ~sample_size:90
          (Array.make 9 0.5)
      in
      let points = [| p |] in
      ignore (Core.Predictor.predict_batch ~cache predictor points);
      fun () -> ignore (Core.Predictor.predict_batch ~cache predictor points) );
    ( "fig4_lhs_sample_n90",
      let rng = fixture_rng () in
      fun () -> ignore (Design.Lhs.sample rng Core.Paper_space.space ~n:90) );
    ( "fig5_split_enumeration",
      let tree = Lazy.force fixture_tree in
      fun () -> ignore (Tree.splits tree) );
    ( "fig6_trend_predict_grid",
      let predictor = Lazy.force fixture_predictor in
      fun () ->
        let base = Array.make 9 0.5 in
        ignore
          (Core.Trend.sweep ~predictor ~base ~dim1:6 ~steps1:4 ~dim2:5
             ~steps2:6 ()) );
    ( "fig7_linear_stepwise",
      let points = Lazy.force fixture_sample in
      let responses = Lazy.force fixture_responses in
      fun () -> ignore (Linreg.Model.stepwise ~points ~responses ()) );
    (* Domain-pool dispatch cost: map a trivial function with at least two
       domains so the pooled path (not the serial shortcut) is exercised
       even on a single-core host. *)
    ( "parallel_map_overhead",
      let domains = max 2 (Stats.Parallel.default_domains ()) in
      let xs = Array.init 256 float_of_int in
      fun () -> ignore (Stats.Parallel.map ~domains (fun x -> x +. 1.) xs) );
    (* The i/j-symmetric pair kernel at a size where the halved pair count
       dominates (n=256: 32k ordered pairs instead of 65k). *)
    ( "l2star_symmetric_n256",
      let sample = Lazy.force fixture_sample_256 in
      fun () -> ignore (Design.Discrepancy.l2_star sample) );
    (* One candidate step of center selection, both ways: a full QR refit
       of the subset versus an incremental push / score / pop on a shared
       Cholesky factor of the normal equations. *)
    ( "selection_score_full",
      let design, responses, base, extra = Lazy.force fixture_selection in
      let cols = base @ [ extra ] in
      fun () ->
        ignore
          (Rbf.Selection.evaluate_subset ~criterion:Rbf.Criteria.Aicc ~design
             ~responses cols) );
    ( "selection_score_incremental",
      let design, responses, base, extra = Lazy.force fixture_selection in
      let scorer = Rbf.Subset_scorer.create ~design ~responses in
      let fac = Ils.factor (Rbf.Subset_scorer.incremental scorer) in
      assert (Ils.set fac base);
      fun () ->
        if Ils.push fac extra then begin
          ignore
            (Rbf.Subset_scorer.score_factor scorer fac
               ~criterion:Rbf.Criteria.Aicc);
          Ils.pop fac
        end );
  ]

(* Machine-readable results for regression tracking.  The group prefix
   Bechamel adds ("archpred/") is stripped so names match micro_tests.
   Carries the same metadata stamp as BENCH_serve.json (domains,
   git describe, SIMD level) plus the batch size each bench runs at. *)
let batch_size_of name =
  match String.rindex_opt name '_' with
  | Some i
    when String.length name > i + 6
         && String.equal (String.sub name (i + 1) 5) "batch" -> (
      match int_of_string_opt (String.sub name (i + 6) (String.length name - i - 6)) with
      | Some b -> b
      | None -> 1)
  | _ -> 1

let write_bench_json measured =
  let module Json = Archpred_obs.Json in
  let path = "BENCH_parallel.json" in
  let strip name =
    match String.index_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let results =
    List.map
      (fun (name, ns) ->
        let name = strip name in
        Json.Obj
          [
            ("name", Json.String name);
            ("ns_per_run", Json.Float ns);
            ("batch_size", Json.Int (batch_size_of name));
          ])
      measured
  in
  (* [preserved] keeps the simulation-engine section written by
     [bench --sim], so the two writers share the report file. *)
  Core.Bench_report.write ~path ~schema:"archpred-parallel-v1"
    (Core.Bench_report.preserved ~path [ "sim" ]
    @ [ ("results", Json.List results) ]);
  Printf.printf "\nwrote %s\n" path

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline "Micro-benchmarks (Bechamel, monotonic clock)";
  print_endline (String.make 78 '=');
  let tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) micro_tests
  in
  let grouped = Test.make_grouped ~name:"archpred" tests in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Stats.Tbl.sorted_bindings ~cmp:String.compare results in
  Printf.printf "%-42s %16s\n" "benchmark" "time/run";
  print_endline (String.make 60 '-');
  let measured =
    List.filter_map
      (fun (name, v) ->
        match Analyze.OLS.estimates v with
        | Some (t :: _) ->
            let pretty =
              if t > 1e9 then Printf.sprintf "%.3f s" (t /. 1e9)
              else if t > 1e6 then Printf.sprintf "%.3f ms" (t /. 1e6)
              else if t > 1e3 then Printf.sprintf "%.3f us" (t /. 1e3)
              else Printf.sprintf "%.1f ns" t
            in
            Printf.printf "%-42s %16s\n" name pretty;
            Some (name, t)
        | Some [] | None ->
            Printf.printf "%-42s %16s\n" name "n/a";
            None)
      rows
  in
  write_bench_json measured

(* ------------------------------------------------------------------ *)
(* Serving load test: the batched-kernel throughput report.            *)
(* ------------------------------------------------------------------ *)

(* Sweep batch sizes over the same total prediction count so the rows
   are comparable; BENCH_serve.json is the committed record of the
   batched kernel's speedup over the scalar reference, plus the
   batched-memo fix.  The daemon's own numbers come from a client in a
   separate process (perfbench), not from this one. *)

(* The per-lookup memo path measured at the PR-7 commit (batch 256,
   same fixture and machine class): the committed baseline the batched
   probe/commit rework is judged against. *)
let memo_before_batch256 = (294.47, 132.16)

let run_serve () =
  let module Json = Archpred_obs.Json in
  let predictor = Lazy.force fixture_predictor in
  let total = 65_536 in
  let results =
    List.map
      (fun batch_size ->
        let config =
          {
            Core.Serve.default with
            Core.Serve.batch_size;
            batches = total / batch_size;
          }
        in
        let r = Core.Serve.run ~predictor config in
        Printf.printf
          "batch %4d: %8.1f ns/pt batched (%5.1f ns/pt raw kernel, %8.1f \
           ns/pt scalar, %6.2fx), %6.1f ns/pt cached, hit rate %.3f\n%!"
          batch_size r.Core.Serve.batch_ns_per_point
          r.Core.Serve.kernel_ns_per_point r.Core.Serve.scalar_ns_per_point
          r.Core.Serve.speedup_vs_scalar r.Core.Serve.cached_ns_per_point
          r.Core.Serve.hit_rate;
        r)
      [ 1; 16; 64; 256 ]
  in
  (* the memo-fix record: committed per-lookup baseline vs this run *)
  let memo_fix =
    let r256 = List.nth results 3 in
    let before_cached, before_kernel = memo_before_batch256 in
    Printf.printf
      "memo fix @256: cached %.1f -> %.1f ns/pt (kernel %.1f -> %.1f)\n%!"
      before_cached r256.Core.Serve.cached_ns_per_point before_kernel
      r256.Core.Serve.kernel_ns_per_point;
    Json.Obj
      [
        ("batch_size", Json.Int 256);
        ("before_cached_ns_per_point", Json.Float before_cached);
        ("before_kernel_ns_per_point", Json.Float before_kernel);
        ("after_cached_ns_per_point",
         Json.Float r256.Core.Serve.cached_ns_per_point);
        ("after_kernel_ns_per_point",
         Json.Float r256.Core.Serve.kernel_ns_per_point);
        ("cached_le_kernel",
         Json.Bool
           (r256.Core.Serve.cached_ns_per_point
          <= r256.Core.Serve.kernel_ns_per_point));
      ]
  in
  let path = "BENCH_serve.json" in
  Core.Serve.write_json ~path ~extra:[ ("memo_fix", memo_fix) ] results;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Simulation: the per-config engine on the paper build's shape.       *)
(* ------------------------------------------------------------------ *)

let run_sim () =
  let p = Core.Sim_bench.paper_shape () in
  Printf.printf
    "simulation engine, paper shape (mcf %d insts, %d test-box configs, 1 \
     domain): %.1f ns/inst/config, cycles crc %s\n"
    p.Core.Sim_bench.paper_trace_length p.Core.Sim_bench.paper_configs
    p.Core.Sim_bench.ns_per_inst_config p.Core.Sim_bench.cycles_crc;
  Core.Sim_bench.record p;
  Printf.printf "wrote BENCH_parallel.json (sim section)\n"

(* ------------------------------------------------------------------ *)
(* Sharded search: the BENCH_shard.json record.                        *)
(* ------------------------------------------------------------------ *)

(* Three measurements around one accuracy schedule (mcf, sizes 20..90):
   the paper-default redraw-per-size single-process build, the
   streaming-refit single-process build (same bits as any sharded run),
   and the sharded streaming build at 1/2/4 worker processes.  Each
   sharded row records wall-clock, speedup against both single-process
   baselines, and whether the merged model is byte-identical to the
   single-process streaming model.  The streamed run also records the
   [Refit] counters: rows folded by from-scratch cell builds versus by
   rank-1 pushes — the measured refit-cost reduction per size step. *)

let shard_sizes = [ 20; 30; 40; 50; 60; 70; 80; 90 ]

let shard_spec ~stream_refit =
  {
    Shard.Spec.benchmark = "mcf";
    metric = Core.Response.Cpi;
    seed = 11;
    trace_length = 80_000;
    sample_size = 90;
    test_n = 10;
    lhs_candidates = 40;
    criterion = Rbf.Criteria.Aicc;
    p_min_grid = [ 1; 3 ];
    alpha_grid = [ 7. ];
    shard_unit = 8;
    stream_refit;
    refit_full_every = 4;
    mode = Shard.Spec.Accuracy { sizes = shard_sizes; target_mean_pct = 0. };
  }

(* The single-process reference build, exactly as `archpred train` runs
   it: one root generator, test points drawn first, then the schedule. *)
let shard_single_run ?(obs = Archpred_obs.null) spec =
  let rng = Stats.Rng.create spec.Shard.Spec.seed in
  let response = Shard.Spec.response ~obs spec in
  let test = Core.Paper_space.test_points rng ~n:spec.Shard.Spec.test_n in
  let actual = Core.Response.evaluate_many ~domains:1 response test in
  let config = Shard.Spec.config ~obs spec |> Core.Config.with_rng rng in
  let sizes, target_mean_pct =
    match spec.Shard.Spec.mode with
    | Shard.Spec.Accuracy { sizes; target_mean_pct } -> (sizes, target_mean_pct)
    | Shard.Spec.Train ->
        Archpred_obs.Error.invalid_input ~where:"bench"
          "shard bench runs an accuracy schedule"
  in
  let t0 = Archpred_obs.now_ns () in
  let history =
    Core.Build.build_to_accuracy ~config ~space:Core.Paper_space.space
      ~response ~sizes ~test_points:test ~test_responses:actual
      ~target_mean_pct ()
  in
  let wall = Archpred_obs.seconds_since t0 in
  (wall, history.Core.Build.final.Core.Build.trained)

let shard_sharded_run ~exe ~workers spec =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "archpred_bench_shard_%d_w%d" (Unix.getpid ()) workers)
  in
  let workers =
    if workers = 1 then Shard.Coordinator.In_process { domains = 1 }
    else
      Shard.Coordinator.Processes
        {
          count = workers;
          argv = (fun id -> [| exe; "worker"; "--dir"; dir; "--id"; id |]);
        }
  in
  let t0 = Archpred_obs.now_ns () in
  let outcome = Shard.Coordinator.run ~dir ~spec ~workers () in
  (Archpred_obs.seconds_since t0, outcome)

let run_shard () =
  let module Json = Archpred_obs.Json in
  let exe =
    let build = Filename.dirname (Filename.dirname Sys.executable_name) in
    let exe = Filename.concat build (Filename.concat "bin" "archpred.exe") in
    if Sys.file_exists exe then exe
    else
      Archpred_obs.Error.invalid_input ~where:"bench"
        (Printf.sprintf "worker binary %s not built (run `dune build` first)"
           exe)
  in
  let cells =
    List.length (shard_spec ~stream_refit:true).Shard.Spec.p_min_grid
    * List.length (shard_spec ~stream_refit:true).Shard.Spec.alpha_grid
  in
  Printf.printf "sharded search (mcf, sizes %s, trace %d, %d tune cells)\n%!"
    (String.concat "," (List.map string_of_int shard_sizes))
    (shard_spec ~stream_refit:true).Shard.Spec.trace_length cells;
  let redraw_s, _redraw = shard_single_run (shard_spec ~stream_refit:false) in
  Printf.printf "  single-process redraw-per-size  %7.2f s\n%!" redraw_s;
  let obs = Archpred_obs.create () in
  let stream_s, stream_trained =
    shard_single_run ~obs (shard_spec ~stream_refit:true)
  in
  let rows_full = Archpred_obs.counter obs "refit.rows_full" in
  let rows_pushed = Archpred_obs.counter obs "refit.rows_pushed" in
  let crosschecks = Archpred_obs.counter obs "refit.crosschecks" in
  Printf.printf
    "  single-process streaming refit  %7.2f s  (%.2fx; refit rows: %d \
     full + %d pushed over %d cells, %d crosschecks)\n%!"
    stream_s (redraw_s /. stream_s) rows_full rows_pushed cells crosschecks;
  let stream_model = Core.Persist.to_string stream_trained.Core.Build.predictor in
  let rows =
    List.map
      (fun workers ->
        let wall, outcome =
          shard_sharded_run ~exe ~workers (shard_spec ~stream_refit:true)
        in
        let final = outcome.Shard.Coordinator.result.Core.Pipeline.final in
        let identical =
          String.equal stream_model
            (Core.Persist.to_string final.Core.Build.predictor)
        in
        Printf.printf
          "  %d worker%s                       %7.2f s  (%.2fx vs redraw, \
           %.2fx vs stream, bit-identical %b, %d respawns)\n%!"
          workers
          (if workers = 1 then " " else "s")
          wall (redraw_s /. wall) (stream_s /. wall) identical
          outcome.Shard.Coordinator.respawns;
        Json.Obj
          [
            ("workers", Json.Int workers);
            ("wall_s", Json.Float wall);
            ("speedup_vs_single_redraw", Json.Float (redraw_s /. wall));
            ("speedup_vs_single_stream", Json.Float (stream_s /. wall));
            ("bit_identical_to_single_stream", Json.Bool identical);
            ("respawns", Json.Int outcome.Shard.Coordinator.respawns);
          ])
      [ 1; 2; 4 ]
  in
  (* Rows a redraw-per-size procedure folds into every cell's moments
     from scratch, for scale against the measured counters. *)
  let redraw_rows_per_cell = List.fold_left ( + ) 0 shard_sizes in
  let path = "BENCH_shard.json" in
  Core.Bench_report.write ~path ~schema:"archpred-shard-v1"
    [
      ("benchmark", Json.String "mcf");
      ("trace_length",
       Json.Int (shard_spec ~stream_refit:true).Shard.Spec.trace_length);
      ("sizes", Json.List (List.map (fun n -> Json.Int n) shard_sizes));
      ("test_n", Json.Int (shard_spec ~stream_refit:true).Shard.Spec.test_n);
      ("lhs_candidates",
       Json.Int (shard_spec ~stream_refit:true).Shard.Spec.lhs_candidates);
      ("shard_unit",
       Json.Int (shard_spec ~stream_refit:true).Shard.Spec.shard_unit);
      ("single_redraw_s", Json.Float redraw_s);
      ("single_stream_s", Json.Float stream_s);
      ("stream_vs_redraw_speedup", Json.Float (redraw_s /. stream_s));
      ("sharded", Json.List rows);
      ( "refit",
        Json.Obj
          [
            ("cells", Json.Int cells);
            ("rows_full", Json.Int rows_full);
            ("rows_pushed", Json.Int rows_pushed);
            ("crosschecks", Json.Int crosschecks);
            ("redraw_rows_per_cell", Json.Int redraw_rows_per_cell);
          ] );
    ];
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--serve" args then (
    run_serve ();
    (* archpred-analyze: allow exit -- CLI early-exit after the serve-only run *)
    exit 0);
  if List.mem "--sim" args then (
    run_sim ();
    (* archpred-analyze: allow exit -- CLI early-exit after the sim-only run *)
    exit 0);
  if List.mem "--shard" args then (
    run_shard ();
    (* archpred-analyze: allow exit -- CLI early-exit after the shard-only run *)
    exit 0);
  let micro_only = List.mem "--micro" args in
  let paper_flag = List.mem "--paper" args in
  let trace_flag = List.mem "--trace" args in
  (* --metrics FILE consumes its argument, so strip both from [ids]. *)
  let rec metrics_path = function
    | "--metrics" :: path :: _ -> Some path
    | _ :: rest -> metrics_path rest
    | [] -> None
  in
  let metrics = metrics_path args in
  let args =
    let rec strip = function
      | "--metrics" :: _ :: rest -> strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let ids =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  let metrics_oc = Option.map open_out metrics in
  let obs =
    match metrics_oc with
    | Some oc ->
        Archpred_obs.create ~sink:(Archpred_obs.Sink.jsonl_channel oc) ()
    | None -> if trace_flag then Archpred_obs.create () else Archpred_obs.null
  in
  let ppf = Format.std_formatter in
  if not micro_only then begin
    let ctx = Experiments.Context.create ~obs () in
    let entries =
      match ids with
      | [] ->
          if paper_flag then Experiments.Registry.paper_only
          else Experiments.Registry.all
      | ids ->
          List.filter_map
            (fun id ->
              match Experiments.Registry.find id with
              | Some e -> Some e
              | None ->
                  Format.eprintf "unknown experiment id: %s@." id;
                  None)
            ids
    in
    Experiments.Registry.run_all ~entries ctx ppf;
    Format.pp_print_flush ppf ()
  end;
  if micro_only || ids = [] then run_micro ();
  Archpred_obs.close obs;
  Option.iter close_out metrics_oc;
  if trace_flag then Archpred_obs.report obs ppf;
  Format.pp_print_flush ppf ()
