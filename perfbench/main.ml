(* The end-to-end benchmark of archpred.

   Each workload is what a user of archpred does: build a model with
   `archpred train`, then query it through `archpred served`.  Both run as
   child processes of this one, so the numbers are the ones a user sees.
   A traced run (--trace 1) rebuilds the same model in process from the
   libraries' public calls and replays the same request stream through
   the daemon's layers, to explain those numbers layer by layer.

   Usage (from the repository root):
     main.exe --workload W [--seed S] [--seconds T] [--trace 0|1]
         one run; the last stdout line is its JSON result
     main.exe --benchmark [--workload W] [--seed S] [--runs K] [--traced]
              [--seconds T] [--out FILE]
         K untraced runs of each workload, in alternating order, then one
         traced run each; prints medians and quartiles
     main.exe --compare BASE.json NEW.json
         per workload and end-to-end metric: both medians and quartiles
         and a verdict (better, same, worse, unresolved); a report only
     main.exe --smoke
         every workload at about 1/100 scale with the correctness checks
         and no timings
   --archpred PATH overrides the binary under test (default: the
   archpred.exe built beside this executable). *)

module Core = Archpred_core
module Json = Archpred_obs.Json
module Frame = Archpred_serve_net.Frame
module Spec = Perfbench.Spec
module Summary = Perfbench.Summary

type workload = {
  name : string;
  train : Train_phase.config;
  serve : Serve_phase.config;
}

(* Two workloads, each pairing a training shape with a traffic mix so
   that for every layer one workload exercises it and the other bypasses
   it (see README.md for the predicted effects):
   - paper_bin_hot: the paper's redraw-per-size schedule (600
     simulations, simulator-bound), then binary requests cycling over 512
     on-grid points, so the daemon's memo answers nearly everything and
     framing and syscalls dominate;
   - fit_json_cold: a large sample on a short trace (fitting-bound), then
     JSON requests at fresh off-grid points, so every request bypasses
     the memo and runs the kernel. *)
let workloads =
  [
    {
      name = "paper_bin_hot";
      train =
        {
          Train_phase.build = Train_phase.Schedule [ 30; 50; 70; 90; 110; 200 ];
          trace_length = 60_000;
          test_points = 50;
        };
      serve = { Serve_phase.wire = Frame.Binary_wire; hot = true; round = 65_536 };
    };
    {
      name = "fit_json_cold";
      train =
        {
          Train_phase.build = Train_phase.Sample 400;
          trace_length = 2_000;
          test_points = 50;
        };
      serve = { Serve_phase.wire = Frame.Json_wire; hot = false; round = 16_384 };
    };
  ]

let smoke_scale w =
  let train =
    match w.train.Train_phase.build with
    | Train_phase.Schedule _ ->
        { Train_phase.build = Train_phase.Schedule [ 10; 20 ]; trace_length = 2_000; test_points = 5 }
    | Train_phase.Sample _ ->
        { Train_phase.build = Train_phase.Sample 40; trace_length = 500; test_points = 5 }
  in
  { w with train; serve = { w.serve with Serve_phase.round = 500 } }

(* Share of a run's seconds spent training; serving takes the rest. *)
let train_share = 0.7
let daemon_starts = 10
let warmup = 20_000
let golden_seed = 7
let goldens_path = "perfbench/goldens.json"

(* ------------------------------------------------------------------ *)
(* Environment                                                          *)
(* ------------------------------------------------------------------ *)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let cores = Domain.recommended_domain_count ()

(* Training runs with ARCHPRED_DOMAINS=2 unless the environment says
   otherwise; more domains than cores would measure oversubscription. *)
let train_domains () =
  let d =
    match Archpred_stats.Parallel.env_domains () with
    | Some d -> d
    | None -> 2
    | exception Archpred_obs.Error.Archpred e -> die "%s" (Archpred_obs.Error.to_string e)
  in
  if d > cores then die "%d training domains exceed the host's %d cores" d cores;
  d

(* Beside Bench_report's stamp (domains, git_describe, simd). *)
let metadata ~domains =
  [
    ("cores", Json.Int cores);
    ("train_domains", Json.Int domains);
    ("served_domains", Json.Int Archpred_serve_net.Daemon.default.Archpred_serve_net.Daemon.domains);
    ("connections", Json.Int 1);
    ("pipeline", Json.Int Serve_phase.pipeline);
  ]

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Every file a run writes lives under .perfbench/ in the working
   directory and is removed when the run ends. *)
let with_run_dir f =
  let root = ".perfbench" in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let default_exe () =
  let build = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat build (Filename.concat "bin" "archpred.exe")

(* ------------------------------------------------------------------ *)
(* Goldens                                                              *)
(* ------------------------------------------------------------------ *)

let golden w key =
  match In_channel.with_open_bin goldens_path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.of_string text with
      | Error e -> Error (goldens_path ^ ": " ^ e)
      | Ok j -> (
          match
            Option.bind (Json.member "workloads" j) (fun ws ->
                Option.bind (Json.member w.name ws) (Json.member key))
          with
          | Some (Json.String s) -> Ok s
          | Some _ | None -> Error (Printf.sprintf "%s: no %s.%s" goldens_path w.name key)))

let check_golden ~fail w ~seed key value =
  if seed = golden_seed then
    match golden w key with
    | Ok g when String.equal g value -> ()
    | Ok g -> fail (Printf.sprintf "%s is %s, golden %s at seed %d" key value g seed)
    | Error e -> fail e

(* ------------------------------------------------------------------ *)
(* One run                                                              *)
(* ------------------------------------------------------------------ *)

type outcome = {
  values : (string * float) list;
  attempted : int;
  failed : int;
  notes : string list;  (** checks that failed *)
}

let median_of f xs = Summary.median (List.map f xs)

(* On a shared host other tenants slow whole stretches of a run: over two
   minutes the median speed of a fixed loop in 5 s windows ranged
   1.08-1.72x its best, while the best of each window stayed within
   1.00-1.22x.  Timed samples within a run are therefore summarised on
   their quiet side -- the fastest train and daemon start, the
   90th-percentile round throughput, the 10th-percentile round latencies
   -- which is the cost of the program rather than of its neighbours. *)
let quiet_q = 0.1
let fastest f xs = Summary.quantile (List.map f xs) 0.
let quiet_low f xs = Summary.quantile (List.map f xs) quiet_q
let quiet_high f xs = Summary.quantile (List.map f xs) (1. -. quiet_q)

(* Run [archpred train] back to back while the next run is expected to
   end inside [budget_s]; every run must save the same model. *)
let train_runs ~fail ~exe ~domains w ~seed ~save ~budget_s =
  let t0 = Archpred_obs.now_ns () in
  let rec go acc =
    let ok, cli = Train_phase.run_cli ~fail ~exe ~domains w.train ~seed ~save in
    let acc = (ok, cli) :: acc in
    if Proc.seconds_since t0 +. cli.Train_phase.wall_s <= budget_s then go acc
    else List.rev acc
  in
  let runs = go [] in
  let clis = List.map snd runs in
  let first = List.hd clis in
  List.iter
    (fun (c : Train_phase.cli) ->
      if not (String.equal c.Train_phase.model_crc first.Train_phase.model_crc)
      then fail "repeated archpred train runs saved different models")
    clis;
  (clis, List.length (List.filter (fun (ok, _) -> not ok) runs))

let untraced ~exe ~domains ~dir w ~seed ~seconds =
  let notes = ref [] in
  let fail m = notes := m :: !notes in
  let model = Filename.concat dir "model" in
  let clis, train_failed =
    train_runs ~fail ~exe ~domains w ~seed ~save:model
      ~budget_s:(train_share *. seconds)
  in
  let first = List.hd clis in
  Train_phase.check_test_error ~fail ~domains w.train ~seed ~model first;
  check_golden ~fail w ~seed "model_crc" first.Train_phase.model_crc;
  check_golden ~fail w ~seed "test_error_mean_pct" first.Train_phase.test_error;
  let s =
    Serve_phase.run ~fail ~exe ~dir ~model ~seed ~starts:daemon_starts ~warmup
      ~seconds:((1. -. train_share) *. seconds) w.serve
  in
  let samples = List.fold_left (fun a r -> a + r.Serve_phase.sent) 0 s.Serve_phase.rounds in
  Printf.printf "%s: %d train runs, %d daemon starts, %d timed requests in %d rounds\n"
    w.name (List.length clis) (List.length s.Serve_phase.setup_s) samples
    (List.length s.Serve_phase.rounds);
  let rounds = s.Serve_phase.rounds in
  {
    values =
      [
        ("train_s", fastest (fun c -> c.Train_phase.wall_s) clis);
        ("setup_s", median_of (fun c -> c.Train_phase.setup_s) clis);
        ("train_rss_mb", median_of (fun c -> c.Train_phase.peak_mb) clis);
        ("served_setup_s", fastest Fun.id s.Serve_phase.setup_s);
        ("served_rss_mb", s.Serve_phase.peak_mb);
        ("pred_per_s", quiet_high (fun r -> r.Serve_phase.throughput) rounds);
        ("p50_us", quiet_low (fun r -> r.Serve_phase.p50_us) rounds);
        ("p99_us", quiet_low (fun r -> r.Serve_phase.p99_us) rounds);
      ];
    attempted = List.length clis + s.Serve_phase.attempted;
    failed = train_failed + s.Serve_phase.failed;
    notes = List.rev !notes;
  }

let traced ~exe ~domains ~dir w ~seed ~seconds =
  let notes = ref [] in
  let fail m = notes := m :: !notes in
  let model = Filename.concat dir "model" in
  let ok, cli = Train_phase.run_cli ~fail ~exe ~domains w.train ~seed ~save:model in
  let l =
    Train_phase.rebuild ~domains w.train ~seed
      ~save:(Filename.concat dir "rebuilt.model")
  in
  if not (String.equal l.Train_phase.rebuilt_crc cli.Train_phase.model_crc) then
    fail
      (Printf.sprintf "in-process rebuild saved model %s, archpred train %s"
         l.Train_phase.rebuilt_crc cli.Train_phase.model_crc);
  if not l.Train_phase.argmin_agrees then
    fail "the decomposed tuning grid picks a different cell than Tune.tune";
  if not (String.equal l.Train_phase.rebuilt_test_error cli.Train_phase.test_error)
  then fail "the rebuild's test error differs from the CLI's";
  check_golden ~fail w ~seed "model_crc" cli.Train_phase.model_crc;
  check_golden ~fail w ~seed "test_error_mean_pct" cli.Train_phase.test_error;
  check_golden ~fail w ~seed "sample_cpi_crc" l.Train_phase.sample_cpi_crc;
  Printf.printf "%s digests at seed %d: model_crc %s, test_error_mean_pct %s, sample_cpi_crc %s\n"
    w.name seed cli.Train_phase.model_crc cli.Train_phase.test_error
    l.Train_phase.sample_cpi_crc;
  let metrics = Filename.concat dir "served.jsonl" in
  let s =
    Serve_phase.run ~fail ~exe ~dir ~model ~seed ~metrics ~starts:1 ~warmup
      ~seconds:((1. -. train_share) *. seconds) w.serve
  in
  let counter k = Option.value (List.assoc_opt k s.Serve_phase.counters) ~default:0 in
  let batch_mean =
    float_of_int (counter "served.requests")
    /. float_of_int (max 1 (counter "served.batches"))
  in
  let hit_ratio =
    match s.Serve_phase.drain with
    | Some d ->
        let open Perfbench.Parse in
        float_of_int d.hits /. float_of_int (max 1 (d.hits + d.misses + d.bypasses))
    | None -> 0.
  in
  let r =
    Serve_phase.replay ~model ~seed ~warmup
      ~batch:(int_of_float (Float.round batch_mean))
      w.serve
  in
  let pred_per_s = quiet_high (fun r -> r.Serve_phase.throughput) s.Serve_phase.rounds in
  let service_ns = 1e9 /. pred_per_s in
  let timed = List.fold_left (fun a r -> a + r.Serve_phase.sent) 0 s.Serve_phase.rounds in
  let busy_ns cpu_s = cpu_s *. 1e9 /. float_of_int timed in
  let stages = Train_phase.stage_sum l in
  let minst = float_of_int l.Train_phase.sim_instructions /. 1e6 in
  let kernel_share = 1. -. hit_ratio in
  Printf.printf
    "%s traced: archpred train %.3f s = stages %.3f s + unattributed %.3f s; \
     served %.0f ns/request = decode %.0f + memo %.0f + kernel %.0f x %.3f \
     + encode %.0f + unattributed\n"
    w.name cli.Train_phase.wall_s stages
    (cli.Train_phase.wall_s -. stages)
    service_ns r.Serve_phase.decode_request_ns r.Serve_phase.probe_ns
    r.Serve_phase.kernel_ns kernel_share r.Serve_phase.encode_response_ns;
  {
    values =
      [
        ("workloads.trace_s", l.Train_phase.trace_s);
        ("sim.test_s", l.Train_phase.test_s);
        ("sim.sample_s", l.Train_phase.sample_s);
        ("sim.runs", float_of_int l.Train_phase.sim_runs);
        ("sim.instructions", float_of_int l.Train_phase.sim_instructions);
        ("sim.minst_per_s", minst /. (l.Train_phase.test_s +. l.Train_phase.sample_s));
        ("design.lhs_s", l.Train_phase.lhs_s);
        ("design.lhs_candidates", float_of_int l.Train_phase.lhs_candidates);
        ("core.tune_s", l.Train_phase.tune_s);
        ("regtree.build_s", l.Train_phase.build_busy_s);
        ("rbf.select_s", l.Train_phase.select_busy_s);
        ("tune.cells", float_of_int l.Train_phase.tune_cells);
        ("core.predictor_s", l.Train_phase.predictor_s);
        ("core.persist_s", l.Train_phase.persist_s);
        ("train.unattributed_s", cli.Train_phase.wall_s -. stages);
        ( "train.trace_overhead_pct",
          100. *. (l.Train_phase.rebuild_s -. cli.Train_phase.wall_s)
          /. cli.Train_phase.wall_s );
        ("setup.load_s", r.Serve_phase.load_s);
        ("frame.decode_request_ns", r.Serve_phase.decode_request_ns);
        ("frame.encode_response_ns", r.Serve_phase.encode_response_ns);
        ("frame.encode_request_ns", r.Serve_phase.encode_request_ns);
        ("frame.decode_response_ns", r.Serve_phase.decode_response_ns);
        ("memo.probe_ns", r.Serve_phase.probe_ns);
        ("memo.hit_ratio", hit_ratio);
        ("kernel.ns_per_point", r.Serve_phase.kernel_ns);
        ("daemon.batch_mean", batch_mean);
        ("daemon.service_ns", service_ns);
        ("daemon.busy_ns", busy_ns s.Serve_phase.daemon_cpu_s);
        ("client.busy_ns", busy_ns s.Serve_phase.client_cpu_s);
        ( "daemon.unattributed_ns",
          service_ns
          -. (r.Serve_phase.decode_request_ns +. r.Serve_phase.probe_ns
             +. (kernel_share *. r.Serve_phase.kernel_ns)
             +. r.Serve_phase.encode_response_ns) );
        ("client.p999_us", quiet_low (fun r -> r.Serve_phase.p999_us) s.Serve_phase.rounds);
      ];
    attempted = 1 + s.Serve_phase.attempted;
    failed = (if ok then 0 else 1) + s.Serve_phase.failed;
    notes = List.rev !notes;
  }

(* Print every metric the spec asks for, by name with its unit, then the
   result line.  A metric the run did not produce is a harness bug. *)
let report (spec : Spec.t) ~trace (o : outcome) =
  let wanted = if trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  let value (m : Spec.metric) =
    match List.assoc_opt m.Spec.name o.values with
    | Some v when Float.is_finite v -> v
    | Some _ -> die "metric %s is not finite" m.Spec.name
    | None -> die "run produced no %s" m.Spec.name
  in
  List.iter
    (fun (m : Spec.metric) ->
      Printf.printf "  %-26s %14.6g %s\n" m.Spec.name (value m) m.Spec.unit_)
    wanted;
  List.iter (fun n -> Printf.printf "  CHECK FAILED: %s\n" n) o.notes;
  let line =
    Json.Obj
      [
        ("correct", Json.Bool (o.notes = []));
        ("attempted", Json.Int o.attempted);
        ("failed", Json.Int o.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (m : Spec.metric) ->
                 ( m.Spec.name,
                   Json.Obj
                     [ ("value", Json.Float (value m)); ("unit", Json.String m.Spec.unit_) ] ))
               wanted) );
      ]
  in
  print_endline (Json.to_string line)

(* ------------------------------------------------------------------ *)
(* Modes                                                                *)
(* ------------------------------------------------------------------ *)

let find_workload name =
  match List.find_opt (fun w -> String.equal w.name name) workloads with
  | Some w -> w
  | None -> die "unknown workload %s" name

let load_spec () =
  match Spec.load "BENCHMARK.json" with
  | Ok s -> (
      match Spec.problems s with
      | [] -> s
      | ps -> die "BENCHMARK.json: %s" (String.concat "; " ps))
  | Error e -> die "%s" e

let single ~exe ~workload ~seed ~seconds ~trace =
  let spec = load_spec () in
  let w = find_workload workload in
  let domains = train_domains () in
  let o =
    with_run_dir (fun dir ->
        if trace then traced ~exe ~domains ~dir w ~seed ~seconds
        else untraced ~exe ~domains ~dir w ~seed ~seconds)
  in
  report spec ~trace o

(* The result line of one run, parsed back. *)
type result = {
  r_correct : bool;
  r_metrics : (string * float) list;
}

let parse_result line =
  let num = function Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None in
  match Json.of_string line with
  | Error e -> Error e
  | Ok j -> (
      match (Json.member "correct" j, Json.member "metrics" j) with
      | Some (Json.Bool r_correct), Some (Json.Obj ms) ->
          Ok
            {
              r_correct;
              r_metrics =
                List.filter_map
                  (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (Json.member "value" v) num))
                  ms;
            }
      | _ -> Error "not a result line")

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let spawn_run ~exe ~w ~seed ~seconds ~trace =
  let args =
    [ "--workload"; w.name; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
      "--archpred"; exe ]
  in
  let r = Proc.run ~env:(Unix.environment ()) Sys.executable_name args in
  print_string r.Proc.output;
  flush stdout;
  match (r.Proc.status, parse_result (last_line r.Proc.output)) with
  | Unix.WEXITED 0, Ok res ->
      if not res.r_correct then die "%s: a correctness check failed" w.name;
      res
  | s, _ -> die "%s run failed (%s)" w.name (Proc.describe s)

let summary_json (xs : float list) =
  let s = Summary.of_samples xs in
  Json.Obj
    [
      ("median", Json.Float s.Summary.median);
      ("q1", Json.Float s.Summary.q1);
      ("q3", Json.Float s.Summary.q3);
      ("n", Json.Int s.Summary.n);
      ("values", Json.List (List.map (fun v -> Json.Float v) xs));
    ]

let benchmark ~exe ~only ~seed ~runs ~traced_too ~seconds ~out =
  let spec = load_spec () in
  let domains = train_domains () in
  let ws = match only with Some n -> [ find_workload n ] | None -> workloads in
  let collected = Hashtbl.create 4 in
  for r = 0 to runs - 1 do
    let order = if r mod 2 = 0 then ws else List.rev ws in
    List.iter
      (fun w ->
        let res = spawn_run ~exe ~w ~seed ~seconds ~trace:false in
        let prev = Option.value (Hashtbl.find_opt collected w.name) ~default:[] in
        Hashtbl.replace collected w.name (prev @ [ res.r_metrics ]))
      order
  done;
  let traced =
    if traced_too then
      List.map (fun w -> (w.name, (spawn_run ~exe ~w ~seed ~seconds ~trace:true).r_metrics)) ws
    else []
  in
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf "seed %d, %g s per run, %d runs per workload, %d cores, %d training domains\n"
    seed seconds runs cores domains;
  let workload_json w =
    let runs = Option.value (Hashtbl.find_opt collected w.name) ~default:[] in
    Printf.printf "\n%s\n" w.name;
    let e2e =
      List.map
        (fun (m : Spec.metric) ->
          let xs = List.filter_map (List.assoc_opt m.Spec.name) runs in
          let s = Summary.of_samples xs in
          Printf.printf "  %-16s median %12.6g  [%12.6g, %12.6g] %-6s  spread %5.1f%% (bound %.0f%%)\n"
            m.Spec.name s.Summary.median s.Summary.q1 s.Summary.q3 m.Spec.unit_
            (100. *. Summary.rel_spread s)
            (100. *. Option.value m.Spec.bound ~default:0.);
          (m.Spec.name, summary_json xs))
        spec.Spec.end_to_end
    in
    let layers =
      match List.assoc_opt w.name traced with
      | Some ms ->
          List.iter
            (fun (m : Spec.metric) ->
              Printf.printf "  %-26s %14.6g %s\n" m.Spec.name
                (Option.value (List.assoc_opt m.Spec.name ms) ~default:Float.nan)
                m.Spec.unit_)
            spec.Spec.per_layer;
          [ ("traced", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) ms)) ]
      | None -> []
    in
    (w.name, Json.Obj (("end_to_end", Json.Obj e2e) :: layers))
  in
  let ws_json = List.map workload_json ws in
  match out with
  | None -> ()
  | Some path ->
      Core.Bench_report.write ~path ~schema:"archpred-perfbench-v1"
        (metadata ~domains
        @ [
            ("seed", Json.Int seed);
            ("seconds", Json.Float seconds);
            ("runs", Json.Int runs);
            ("workloads", Json.Obj ws_json);
          ]);
      Printf.printf "\nwrote %s\n" path

let compare_files base fresh =
  let spec = load_spec () in
  let load path =
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> die "%s: %s" path e
    | exception Sys_error e -> die "%s" e
  in
  let values j w m =
    match
      Option.bind (Json.member "workloads" j) (fun ws ->
          Option.bind (Json.member w ws) (fun wj ->
              Option.bind (Json.member "end_to_end" wj) (fun e ->
                  Option.bind (Json.member m e) (Json.member "values"))))
    with
    | Some (Json.List vs) ->
        List.filter_map (function Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None) vs
    | Some _ | None -> []
  in
  let b = load base and f = load fresh in
  Printf.printf "%-14s %-15s %30s %30s %8s  %s\n" "workload" "metric" "base median [q1, q3]"
    "new median [q1, q3]" "change" "verdict";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (m : Spec.metric) ->
          match (values b w m.Spec.name, values f w m.Spec.name) with
          | [], _ | _, [] -> Printf.printf "%-14s %-15s (missing)\n" w m.Spec.name
          | bs, fs ->
              let sb = Summary.of_samples bs and sf = Summary.of_samples fs in
              let v =
                Perfbench.Verdict.judge ~better:m.Spec.better
                  ~bound:(Option.value m.Spec.bound ~default:0.)
                  ~base:bs ~fresh:fs
              in
              Printf.printf "%-14s %-15s %10.4g [%8.4g, %8.4g] %10.4g [%8.4g, %8.4g] %+7.1f%%  %s\n"
                w m.Spec.name sb.Summary.median sb.Summary.q1 sb.Summary.q3
                sf.Summary.median sf.Summary.q1 sf.Summary.q3
                (100. *. (sf.Summary.median -. sb.Summary.median) /. Float.abs sb.Summary.median)
                (Perfbench.Verdict.to_string v))
        spec.Spec.end_to_end)
    spec.Spec.workloads

(* Every workload at toy scale: the rebuild must reproduce the CLI's
   model and the daemon must answer the oracle's values.  No timings. *)
let smoke ~exe =
  let domains = min 2 cores in
  let problems = ref [] in
  with_run_dir (fun dir ->
      List.iter
        (fun w ->
          let w = smoke_scale w in
          let fail m = problems := (w.name ^ ": " ^ m) :: !problems in
          let model = Filename.concat dir "model" in
          let _, cli = Train_phase.run_cli ~fail ~exe ~domains w.train ~seed:golden_seed ~save:model in
          let l =
            Train_phase.rebuild ~domains w.train ~seed:golden_seed
              ~save:(Filename.concat dir "rebuilt.model")
          in
          if not (String.equal l.Train_phase.rebuilt_crc cli.Train_phase.model_crc) then
            fail "rebuild differs from archpred train";
          if not l.Train_phase.argmin_agrees then fail "decomposed tuning disagrees";
          Train_phase.check_test_error ~fail ~domains w.train ~seed:golden_seed ~model cli;
          ignore
            (Serve_phase.run ~fail ~exe ~dir ~model ~seed:golden_seed ~starts:1 ~warmup:200
               ~seconds:0. w.serve))
        workloads);
  match List.rev !problems with
  | [] -> print_endline "perfbench smoke: ok"
  | ps ->
      List.iter prerr_endline ps;
      exit 1

let main () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt k = function
    | a :: v :: _ when String.equal a k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let flag k = List.exists (String.equal k) args in
  let int_opt k d =
    match opt k args with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> die "%s expects an integer" k)
  in
  let exe = Option.value (opt "--archpred" args) ~default:(default_exe ()) in
  let seed = int_opt "--seed" golden_seed in
  let seconds () =
    match opt "--seconds" args with
    | None -> float_of_int (load_spec ()).Spec.run_seconds
    | Some v -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> s
        | Some _ | None -> die "--seconds expects a positive number")
  in
  if flag "--compare" then
    let rec after = function
      | "--compare" :: base :: fresh :: _ -> compare_files base fresh
      | _ :: rest -> after rest
      | [] -> die "--compare BASE.json NEW.json"
    in
    after args
  else if flag "--smoke" then smoke ~exe
  else if flag "--benchmark" then
    benchmark ~exe ~only:(opt "--workload" args) ~seed ~runs:(int_opt "--runs" 5)
      ~traced_too:(flag "--traced") ~seconds:(seconds ()) ~out:(opt "--out" args)
  else
    match opt "--workload" args with
    | Some workload ->
        let trace =
          match opt "--trace" args with
          | None | Some "0" -> false
          | Some "1" -> true
          | Some v -> die "--trace expects 0 or 1, not %s" v
        in
        single ~exe ~workload ~seed ~seconds:(seconds ()) ~trace
    | None ->
        die
          "usage: main.exe --workload W [--seed S] [--seconds T] [--trace 0|1] \
           | --benchmark ... | --compare BASE NEW | --smoke"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match main () with
  | () -> ()
  | exception Archpred_obs.Error.Archpred e -> die "%s" (Archpred_obs.Error.to_string e)
  | exception Unix.Unix_error (e, f, a) -> die "%s %s: %s" f a (Unix.error_message e)
  | exception Sys_error e -> die "%s" e
