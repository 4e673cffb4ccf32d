(* archpred — command-line interface to the library.

   Subcommands:
     benchmarks   list the synthetic SPEC CPU2000 stand-in workloads
     simulate     run the cycle-level simulator on one benchmark/config
     sample       draw a discrepancy-optimised latin hypercube sample
     train        build an RBF CPI model for a benchmark and report accuracy
                  (--shards K fans the build out over worker processes)
     worker       process work units of a sharded run (train --shards)
     serve        batched-prediction load test against a saved model
     served       long-running prediction daemon on a Unix/TCP socket
     search       model-driven search for the best design point
     reproduce    regenerate the paper's tables and figures

   Every subcommand accepts --trace (span-tree timing summary on stdout
   after the run) and --metrics FILE (stream spans/counters/gauges to FILE
   as JSON lines). *)

open Cmdliner

module Stats = Archpred_stats
module Design = Archpred_design
module Sim = Archpred_sim
module Workloads = Archpred_workloads
module Core = Archpred_core
module Experiments = Archpred_experiments
module Obs = Archpred_obs
module Serve_net = Archpred_serve_net
module Shard = Archpred_shard

(* ---------- observability & error plumbing ---------- *)

let trace_t =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print a span-tree timing summary (with counters and gauges) \
           after the run.")

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Stream observability events (spans, counters, gauges) to FILE \
           as JSON lines.")

(* Run one subcommand body with an observability handle.  Archpred errors
   (invalid input, bad environment, I/O, parse, infeasible) print as one
   line on stderr and map to distinct exit codes (2-6); cmdliner keeps
   124/125 for itself. *)
let with_obs ~trace ~metrics f =
  let oc =
    match metrics with
    | None -> None
    | Some path -> (
        match open_out path with
        | oc -> Some oc
        | exception Sys_error msg ->
            let e = Obs.Error.Io_error { path; what = msg } in
            Format.eprintf "archpred: %s@." (Obs.Error.to_string e);
            exit (Obs.Error.exit_code e))
  in
  let obs =
    match oc with
    | Some oc -> Obs.create ~sink:(Obs.Sink.jsonl_channel oc) ()
    | None -> if trace then Obs.create () else Obs.null
  in
  let finish () =
    Obs.close obs;
    Option.iter close_out oc;
    if trace then Obs.report obs Format.std_formatter
  in
  match f obs with
  | v ->
      finish ();
      v
  | exception Obs.Error.Archpred e ->
      Obs.close obs;
      Option.iter close_out oc;
      Format.eprintf "archpred: %s@." (Obs.Error.to_string e);
      exit (Obs.Error.exit_code e)

(* Parallelism for every training stage: the ARCHPRED_DOMAINS environment
   variable overrides the machine default.  Trained models are identical
   for every value (see Stats.Parallel); only wall-clock changes.  Parsing
   is strict, so it must run inside [with_obs] to map a bad value to the
   Invalid_env exit code. *)
let env_domains () = Stats.Parallel.env_domains ()

let base_config ?(obs = Obs.null) ~seed () =
  let c =
    Core.Config.default |> Core.Config.with_seed seed |> Core.Config.with_obs obs
  in
  match env_domains () with
  | None -> c
  | Some d -> Core.Config.with_domains d c

(* ---------- shared arguments ---------- *)

let benchmark_arg =
  let parse s =
    match Workloads.Spec2000_extra.find s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown benchmark %S (try `archpred benchmarks')"
                s))
  in
  let print ppf (p : Workloads.Profile.t) =
    Format.pp_print_string ppf p.name
  in
  Arg.conv (parse, print)

let bench_t =
  Arg.(
    required
    & opt (some benchmark_arg) None
    & info [ "b"; "benchmark" ] ~docv:"NAME"
        ~doc:"Benchmark workload (e.g. mcf, 255.vortex).")

let seed_t =
  Arg.(value & opt int 2006 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let trace_length_t =
  Arg.(
    value
    & opt int 60_000
    & info [ "trace-length" ] ~docv:"N" ~doc:"Synthetic trace length.")

let sample_size_t =
  Arg.(
    value
    & opt int 90
    & info [ "n"; "sample-size" ] ~docv:"N" ~doc:"Training sample size.")

(* Crash-safe training: --checkpoint DIR runs the build as a sharded run
   in DIR, one worker in this process unless --shards asks for worker
   processes.  Shared by every subcommand that trains a model. *)
let checkpoint_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Make the build crash-safe: journal every stage of it (test \
           points, sampling, simulation, tuning) in the run directory \
           $(docv), created if missing.  If training is interrupted — \
           crash, SIGINT, out of memory — rerunning the same command \
           resumes from the committed journals and produces a \
           bit-identical model.  A directory that holds a different run \
           is refused.")

(* The shared problem statement of a run-directory build, from the same
   defaults a single-process build takes. *)
let run_spec ~(bench : Workloads.Profile.t) ~metric ~seed ~trace_length ~n
    ~test_n ~stream_refit ~mode =
  let base = Core.Config.default in
  {
    Shard.Spec.benchmark = bench.Workloads.Profile.name;
    metric;
    seed;
    trace_length;
    sample_size = n;
    test_n;
    lhs_candidates = base.Core.Config.lhs_candidates;
    criterion = base.Core.Config.criterion;
    p_min_grid = base.Core.Config.p_min_grid;
    alpha_grid = base.Core.Config.alpha_grid;
    shard_unit = base.Core.Config.sim_batch;
    stream_refit;
    refit_full_every = base.Core.Config.refit_full_every;
    mode;
  }

(* Run (or resume) [spec] in run directory [dir]: one worker in this
   process on the ARCHPRED_DOMAINS domains, or [shards] worker processes
   of this executable with one domain each. *)
let run_dir_build ~obs ~dir ~shards spec =
  let workers =
    if shards > 1 then
      Shard.Coordinator.Processes
        {
          count = shards;
          argv =
            (fun id ->
              [| Sys.executable_name; "worker"; "--dir"; dir; "--id"; id |]);
        }
    else
      Shard.Coordinator.In_process
        { domains = Stats.Parallel.default_domains () }
  in
  Shard.Coordinator.run ~obs ~dir ~spec ~workers ()

(* ---------- benchmarks ---------- *)

let benchmarks_cmd =
  let run trace metrics =
    with_obs ~trace ~metrics @@ fun _obs ->
    Format.printf "the paper's eight benchmarks:@.";
    List.iter
      (fun (p : Workloads.Profile.t) ->
        Format.printf "  %-12s  %s@." p.name p.description)
      Workloads.Spec2000.all;
    Format.printf "@.extras (not part of the reproduction):@.";
    List.iter
      (fun (p : Workloads.Profile.t) ->
        Format.printf "  %-12s  %s@." p.name p.description)
      Workloads.Spec2000_extra.all
  in
  Cmd.v (Cmd.info "benchmarks" ~doc:"List available benchmark workloads")
    Term.(const run $ trace_t $ metrics_t)

(* ---------- simulate ---------- *)

let simulate_cmd =
  let nine name default doc =
    Arg.(value & opt int default & info [ name ] ~docv:"V" ~doc)
  in
  let run bench trace_length seed pipe rob iq lsq l2s l2l il1 dl1 dl1l trace
      metrics =
    with_obs ~trace ~metrics @@ fun obs ->
    let trace_ =
      Workloads.Generator.generate ~seed bench ~length:trace_length
    in
    let cfg =
      Sim.Config.make ~pipe_depth:pipe ~rob_size:rob ~iq_size:iq ~lsq_size:lsq
        ~l2_size:l2s ~l2_latency:l2l ~il1_size:il1 ~dl1_size:dl1
        ~dl1_latency:dl1l ()
    in
    let result =
      Obs.with_span obs "simulate.run" @@ fun () ->
      Obs.incr obs "sim.runs";
      Obs.count obs "sim.instructions" trace_length;
      (Sim.Batch.run_plan ~domains:1 (Sim.Batch.plan trace_) [| cfg |]).(0)
    in
    Format.printf "%a@.@.%a@." Sim.Config.pp cfg Sim.Batch.pp_result result
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate one benchmark at one configuration")
    Term.(
      const run $ bench_t $ trace_length_t $ seed_t
      $ nine "pipe-depth" 14 "Pipeline depth."
      $ nine "rob" 80 "Reorder-buffer size."
      $ nine "iq" 40 "Issue-queue size."
      $ nine "lsq" 40 "Load/store-queue size."
      $ nine "l2-size" (2 * 1024 * 1024) "L2 capacity in bytes."
      $ nine "l2-lat" 12 "L2 hit latency."
      $ nine "il1-size" (32 * 1024) "L1I capacity in bytes."
      $ nine "dl1-size" (32 * 1024) "L1D capacity in bytes."
      $ nine "dl1-lat" 2 "L1D hit latency."
      $ trace_t $ metrics_t)

(* ---------- sample ---------- *)

let sample_cmd =
  let candidates_t =
    Arg.(
      value & opt int 100
      & info [ "candidates" ] ~docv:"N"
          ~doc:"Latin hypercube candidates scored by discrepancy.")
  in
  let run n candidates seed trace metrics =
    with_obs ~trace ~metrics @@ fun obs ->
    let domains = env_domains () in
    let rng = Stats.Rng.create seed in
    let result =
      Design.Optimize.best_lhs ~obs ~candidates ?domains rng
        Core.Paper_space.space ~n
    in
    Format.printf "best-of-%d LHS, n=%d, L2-star discrepancy %.5f@.@."
      candidates n result.Design.Optimize.discrepancy;
    Array.iteri
      (fun i p ->
        Format.printf "%3d %a@." i
          (Design.Space.pp_point Core.Paper_space.space)
          p)
      result.Design.Optimize.points
  in
  Cmd.v
    (Cmd.info "sample" ~doc:"Draw a space-filling sample of the design space")
    Term.(const run $ sample_size_t $ candidates_t $ seed_t $ trace_t
          $ metrics_t)

(* ---------- train ---------- *)

let metric_t =
  let parse s =
    match s with
    | "cpi" -> Ok Core.Response.Cpi
    | "epi" -> Ok Core.Response.Energy_per_instruction
    | "edp" -> Ok Core.Response.Energy_delay_product
    | _ -> Error (`Msg "metric must be cpi, epi or edp")
  in
  let print ppf m = Format.pp_print_string ppf (Core.Response.metric_to_string m) in
  Arg.(
    value
    & opt (conv (parse, print)) Core.Response.Cpi
    & info [ "metric" ] ~docv:"METRIC"
        ~doc:"Response metric: cpi, epi (energy/instruction) or edp.")

let train_cmd =
  let test_n_t =
    Arg.(
      value & opt int 50
      & info [ "test-points" ] ~docv:"N" ~doc:"Random test points.")
  in
  let save_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the trained model to FILE.")
  in
  let target_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "target-error" ] ~docv:"PCT"
          ~doc:
            "Run the paper's full iterative procedure: grow the sample \
             through SIZES until the mean test error reaches PCT percent.")
  in
  let sizes_t =
    Arg.(
      value
      & opt (list int) [ 30; 50; 70; 90; 110; 200 ]
      & info [ "sizes" ] ~docv:"N,N,..."
          ~doc:"Sample-size schedule used with --target-error.")
  in
  let shards_t =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Run the build as K cooperating worker processes sharing a run \
             directory ($(b,--checkpoint), default $(b,shard-run)).  The \
             trained model is bit-identical to a single-process run.")
  in
  let stream_refit_t =
    Arg.(
      value & flag
      & info [ "stream-refit" ]
          ~doc:
            "With $(b,--target-error): grow one nested sample and extend \
             the tuning fit by rank-1 updates instead of refitting from \
             scratch at every size (deterministic, but a deliberate \
             departure from the paper's redraw-per-size procedure).")
  in
  (* Print the accuracy-schedule steps and the final model summary — the
     sharded and single-process paths share this tail. *)
  let report ~t0 ~save ~extra trained steps err =
    List.iter
      (fun (s : Core.Build.step) ->
        Format.printf "  n=%-4d mean error %.2f%%@." s.Core.Build.size
          s.Core.Build.test_error.Stats.Error_metrics.mean_pct)
      steps;
    Format.printf "p_min=%d alpha=%.0f centers=%d discrepancy=%.5f (%.1fs%s)@."
      trained.Core.Build.tune.Core.Tune.p_min
      trained.Core.Build.tune.Core.Tune.alpha
      (Core.Predictor.n_centers trained.Core.Build.predictor)
      trained.Core.Build.discrepancy
      (Archpred_obs.seconds_since t0)
      extra;
    (match err with
    | Some err -> Format.printf "test error: %a@." Stats.Error_metrics.pp err
    | None -> ());
    match save with
    | Some path ->
        Core.Persist.save trained.Core.Build.predictor path;
        Format.printf "model written to %s@." path
    | None -> ()
  in
  let run bench n trace_length seed test_n metric save target sizes shards
      stream_refit checkpoint trace metrics =
    with_obs ~trace ~metrics @@ fun obs ->
    if shards > 1 || Option.is_some checkpoint then (
      let dir = Option.value checkpoint ~default:"shard-run" in
      let mode =
        match target with
        | None -> Shard.Spec.Train
        | Some target_mean_pct -> Shard.Spec.Accuracy { sizes; target_mean_pct }
      in
      let spec =
        run_spec ~bench ~metric ~seed ~trace_length ~n ~test_n ~stream_refit
          ~mode
      in
      if shards > 1 then
        Format.printf "sharded build for %s: %d workers in %s...@."
          bench.Workloads.Profile.name shards dir
      else
        Format.printf "checkpointed build for %s in %s...@."
          bench.Workloads.Profile.name dir;
      let t0 = Archpred_obs.now_ns () in
      let outcome = run_dir_build ~obs ~dir ~shards spec in
      let result = outcome.Shard.Coordinator.result in
      report ~t0 ~save
        ~extra:
          (if shards > 1 then
             Printf.sprintf ", %d workers, %d respawns"
               outcome.Shard.Coordinator.workers
               outcome.Shard.Coordinator.respawns
           else "")
        result.Core.Pipeline.final result.Core.Pipeline.steps
        outcome.Shard.Coordinator.test_error)
    else
    let rng = Stats.Rng.create seed in
    let response =
      Core.Response.simulator_metric ~obs ~trace_length ~seed ~metric bench
    in
    let test = Core.Paper_space.test_points rng ~n:test_n in
    let actual =
      Core.Response.evaluate_many ?domains:(env_domains ()) response test
    in
    let config =
      base_config ~obs ~seed ()
      |> Core.Config.with_rng rng
      |> Core.Config.with_sample_size n
      |> Core.Config.with_trace_length trace_length
      |> Core.Config.with_stream_refit stream_refit
    in
    let t0 = Archpred_obs.now_ns () in
    let trained, steps =
      match target with
      | None ->
          Format.printf "training RBF %s model for %s (n=%d, trace=%d)...@."
            (Core.Response.metric_to_string metric)
            bench.Workloads.Profile.name n trace_length;
          ( Core.Build.train ~config ~space:Core.Paper_space.space ~response (),
            [] )
      | Some target_mean_pct ->
          Format.printf
            "building to %.1f%% mean error for %s (schedule %s)...@."
            target_mean_pct bench.Workloads.Profile.name
            (String.concat "," (List.map string_of_int sizes));
          let history =
            Core.Build.build_to_accuracy ~config ~space:Core.Paper_space.space
              ~response ~sizes ~test_points:test ~test_responses:actual
              ~target_mean_pct ()
          in
          ( history.Core.Build.final.Core.Build.trained,
            history.Core.Build.steps )
    in
    let err =
      Core.Predictor.errors_on trained.Core.Build.predictor ~points:test
        ~actual
    in
    report ~t0 ~save ~extra:"" trained steps (Some err)
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:"Train an RBF performance model and report its accuracy")
    Term.(
      const run $ bench_t $ sample_size_t $ trace_length_t $ seed_t $ test_n_t
      $ metric_t $ save_t $ target_t $ sizes_t $ shards_t $ stream_refit_t
      $ checkpoint_t $ trace_t $ metrics_t)

(* ---------- worker ---------- *)

let worker_cmd =
  let dir_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Run directory written by the coordinator (train --shards).")
  in
  let id_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "id" ] ~docv:"ID" ~doc:"This worker's unique id (e.g. w0).")
  in
  let poll_t =
    Arg.(
      value & opt float 0.02
      & info [ "poll" ] ~docv:"SECONDS"
          ~doc:"Back-off while waiting on units claimed by other workers.")
  in
  (* Crash-injection hook for the sharded crash-recovery tests:
     ARCHPRED_SHARD_FAULT="<id>:<site>:<after>[:sticky]" arms the fault
     only in the worker whose --id matches exactly — respawned workers
     get fresh ids ("w1.r1"), so the replacement survives the site the
     casualty died at. *)
  let arm_fault id =
    match Sys.getenv_opt "ARCHPRED_SHARD_FAULT" with
    | None -> ()
    | Some v -> (
        match String.split_on_char ':' v with
        | [ wid; site; after ] | [ wid; site; after; "sticky" ] ->
            if String.equal wid id then
              let sticky =
                match String.split_on_char ':' v with
                | [ _; _; _; _ ] -> true
                | _ -> false
              in
              let after =
                match int_of_string_opt after with
                | Some a -> a
                | None ->
                    Obs.Error.invalid_env ~var:"ARCHPRED_SHARD_FAULT"
                      "count must be an integer"
              in
              Archpred_fault.Fault.arm ~site ~after ~sticky ()
        | _ ->
            Obs.Error.invalid_env ~var:"ARCHPRED_SHARD_FAULT"
              "expected <id>:<site>:<after>[:sticky]")
  in
  let run dir id poll trace metrics =
    with_obs ~trace ~metrics @@ fun obs ->
    arm_fault id;
    Shard.Worker.run ~obs ~dir ~id ~poll ()
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Process work units of a sharded run (spawned by train --shards)")
    Term.(const run $ dir_t $ id_t $ poll_t $ trace_t $ metrics_t)

(* ---------- predict ---------- *)

let predict_cmd =
  let model_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE" ~doc:"Model file from `train --save'.")
  in
  let point_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"VALUES"
          ~doc:
            "Comma-separated natural parameter values in dimension order: \
             pipe_depth,ROB,IQ_ratio,LSQ_ratio,L2_size,L2_lat,il1,dl1,dl1_lat.")
  in
  let run model point trace metrics =
    with_obs ~trace ~metrics @@ fun obs ->
    let predictor =
      Obs.with_span obs "predict.load" @@ fun () -> Core.Persist.load model
    in
    let values =
      String.split_on_char ',' point
      |> List.map String.trim
      |> List.map (fun w ->
             match float_of_string_opt w with
             | Some v -> v
             | None ->
                 Obs.Error.invalid_input ~where:"predict"
                   (Printf.sprintf "bad value %S" w))
      |> Array.of_list
    in
    let predicted = Core.Predictor.predict_natural predictor values in
    Format.printf "%.6f@." predicted
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Predict the response at a configuration using a saved model")
    Term.(const run $ model_t $ point_t $ trace_t $ metrics_t)

(* ---------- served ---------- *)

let served_cmd =
  let model_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE" ~doc:"Model file from `train --save'.")
  in
  let socket_t =
    Arg.(
      value
      & opt string "archpred.sock"
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path to listen on (default).")
  in
  let tcp_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Listen on a TCP socket instead of the Unix socket.")
  in
  let max_pending_t =
    Arg.(
      value
      & opt int Serve_net.Daemon.default.Serve_net.Daemon.max_pending
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Ingress queue bound; requests beyond it are shed with an \
             `overloaded' reply.")
  in
  let deadline_ms_t =
    Arg.(
      value
      & opt float 200.
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request queueing deadline; requests older than this \
             answer `timeout'.")
  in
  let batch_t =
    Arg.(
      value
      & opt int Serve_net.Daemon.default.Serve_net.Daemon.max_batch
      & info [ "batch" ] ~docv:"N"
          ~doc:"Largest cross-connection batch handed to the kernel.")
  in
  let capacity_t =
    Arg.(
      value
      & opt int Serve_net.Daemon.default.Serve_net.Daemon.cache_capacity
      & info [ "cache-capacity" ] ~docv:"N" ~doc:"LRU memo capacity.")
  in
  let grid_t =
    Arg.(
      value
      & opt int Serve_net.Daemon.default.Serve_net.Daemon.grid_sample_size
      & info [ "grid" ] ~docv:"N"
          ~doc:"Levels per per-sample axis of the memo's key grid.")
  in
  let max_connections_t =
    Arg.(
      value
      & opt int Serve_net.Daemon.default.Serve_net.Daemon.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Concurrent connection bound; excess connects are refused.")
  in
  let run model socket tcp max_pending deadline_ms batch capacity grid
      max_connections trace metrics =
    with_obs ~trace ~metrics @@ fun obs ->
    let predictor =
      Obs.with_span obs "served.load" @@ fun () -> Core.Persist.load model
    in
    let listener =
      match tcp with
      | None -> Serve_net.Daemon.Unix_socket socket
      | Some spec -> (
          match String.rindex_opt spec ':' with
          | None ->
              Obs.Error.invalid_input ~where:"served"
                "--tcp expects HOST:PORT"
          | Some i -> (
              let host = String.sub spec 0 i in
              match
                int_of_string_opt
                  (String.sub spec (i + 1) (String.length spec - i - 1))
              with
              | Some port -> Serve_net.Daemon.Tcp { host; port }
              | None ->
                  Obs.Error.invalid_input ~where:"served"
                    "--tcp expects a numeric port"))
    in
    if deadline_ms <= 0. then
      Obs.Error.invalid_input ~where:"served" "--deadline-ms must be positive";
    let config =
      {
        Serve_net.Daemon.default with
        Serve_net.Daemon.listener;
        max_pending;
        max_batch = batch;
        deadline_ns = Int64.of_float (deadline_ms *. 1e6);
        cache_capacity = capacity;
        grid_sample_size = grid;
        max_connections;
        model_path = Some model;
      }
    in
    let control = Serve_net.Daemon.control () in
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Serve_net.Daemon.request_drain control));
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Serve_net.Daemon.request_drain control));
    Sys.set_signal Sys.sighup
      (Sys.Signal_handle (fun _ -> Serve_net.Daemon.request_reload control));
    (match listener with
    | Serve_net.Daemon.Unix_socket path ->
        Format.printf
          "archpred served: listening on %s (SIGTERM drains, SIGHUP \
           reloads)@."
          path
    | Serve_net.Daemon.Tcp { host; port } ->
        Format.printf
          "archpred served: listening on %s:%d (SIGTERM drains, SIGHUP \
           reloads)@."
          host port);
    let s = Serve_net.Daemon.run ~obs ~control ~predictor config in
    Format.printf
      "drained: %d connections, %d requests, %d answered@.\
      \  shed %d, timeouts %d, bad requests %d, protocol errors %d@.\
      \  reloads %d ok / %d failed@.\
      \  cache: %d hits, %d misses, %d bypasses@.\
      \  lost %d@.\
      \  of which peer hang-ups %d@."
      s.Serve_net.Daemon.connections s.Serve_net.Daemon.requests
      s.Serve_net.Daemon.answered s.Serve_net.Daemon.shed
      s.Serve_net.Daemon.timeouts s.Serve_net.Daemon.bad_requests
      s.Serve_net.Daemon.protocol_errors s.Serve_net.Daemon.reloads_ok
      s.Serve_net.Daemon.reloads_failed s.Serve_net.Daemon.cache.Core.Memo.hits
      s.Serve_net.Daemon.cache.Core.Memo.misses
      s.Serve_net.Daemon.cache.Core.Memo.bypasses s.Serve_net.Daemon.lost
      s.Serve_net.Daemon.hangups;
    (* replies a peer abandoned by hanging up are its own loss; exit 1
       only when the daemon itself dropped replies *)
    if s.Serve_net.Daemon.lost > s.Serve_net.Daemon.hangups then exit 1
  in
  Cmd.v
    (Cmd.info "served"
       ~doc:
         "Run the fault-tolerant prediction daemon: JSON-lines and binary \
          framing on one socket, cross-connection batching, bounded queues \
          with load shedding, graceful drain on SIGTERM and hot model \
          reload on SIGHUP")
    Term.(
      const run $ model_t $ socket_t $ tcp_t $ max_pending_t $ deadline_ms_t
      $ batch_t $ capacity_t $ grid_t $ max_connections_t
      $ trace_t $ metrics_t)

(* ---------- search ---------- *)

let search_cmd =
  let run bench n trace_length seed checkpoint trace metrics =
    with_obs ~trace ~metrics @@ fun obs ->
    let response = Core.Response.simulator ~obs ~trace_length ~seed bench in
    let config =
      base_config ~obs ~seed ()
      |> Core.Config.with_sample_size n
      |> Core.Config.with_trace_length trace_length
    in
    let rng = Stats.Rng.create seed in
    let predictor =
      match checkpoint with
      | None ->
          let config = Core.Config.with_rng rng config in
          (Core.Build.train ~config ~space:Core.Paper_space.space ~response ())
            .Core.Build.predictor
      | Some dir ->
          let spec =
            run_spec ~bench ~metric:Core.Response.Cpi ~seed ~trace_length ~n
              ~test_n:0 ~stream_refit:false ~mode:Shard.Spec.Train
          in
          let outcome = run_dir_build ~obs ~dir ~shards:1 spec in
          (* The search draws after the build, which advances the root
             generator by one split per LHS candidate. *)
          for _ = 1 to spec.Shard.Spec.lhs_candidates do
            ignore (Stats.Rng.split rng)
          done;
          outcome.Shard.Coordinator.result.Core.Pipeline.final
            .Core.Build.predictor
    in
    let config = Core.Config.with_rng rng config in
    let result = Core.Search.minimize ~config ~predictor () in
    let simulated = response.Core.Response.eval result.Core.Search.point in
    Format.printf "best point (%d model evaluations):@.  %a@."
      result.Core.Search.evaluations
      (Design.Space.pp_point Core.Paper_space.space)
      result.Core.Search.point;
    Format.printf "predicted CPI %.4f, simulated CPI %.4f@."
      result.Core.Search.predicted simulated
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:"Find the design point with the lowest predicted CPI")
    Term.(
      const run $ bench_t $ sample_size_t $ trace_length_t $ seed_t
      $ checkpoint_t $ trace_t $ metrics_t)

(* ---------- sensitivity ---------- *)

let sensitivity_cmd =
  let run bench n trace_length seed metric trace metrics =
    with_obs ~trace ~metrics @@ fun obs ->
    let rng = Stats.Rng.create seed in
    let response =
      Core.Response.simulator_metric ~obs ~trace_length ~seed ~metric bench
    in
    let config =
      base_config ~obs ~seed ()
      |> Core.Config.with_rng rng
      |> Core.Config.with_sample_size n
      |> Core.Config.with_trace_length trace_length
    in
    let trained =
      Core.Build.train ~config ~space:Core.Paper_space.space ~response ()
    in
    let predictor = trained.Core.Build.predictor in
    Format.printf "parameter significance for %s (%s), from a %d-simulation model@.@."
      bench.Workloads.Profile.name
      (Core.Response.metric_to_string metric)
      n;
    Format.printf "main effects (one-at-a-time response range):@.";
    List.iter
      (fun (e : Core.Sensitivity.effect) ->
        Format.printf "  %-12s %8.4f@." e.Core.Sensitivity.name
          e.Core.Sensitivity.magnitude)
      (Core.Sensitivity.main_effects predictor);
    Format.printf "@.total effects (variance-based, interactions included):@.";
    List.iter
      (fun (e : Core.Sensitivity.effect) ->
        Format.printf "  %-12s %8.4f@." e.Core.Sensitivity.name
          e.Core.Sensitivity.magnitude)
      (Core.Sensitivity.total_effects ~rng predictor);
    Format.printf "@.strongest two-factor interactions:@.";
    List.iter
      (fun (a, b, v) -> Format.printf "  %-12s x %-12s %8.4f@." a b v)
      (Core.Sensitivity.top_interactions ~count:5 predictor)
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Rank parameter significance using a trained model")
    Term.(
      const run $ bench_t $ sample_size_t $ trace_length_t $ seed_t $ metric_t
      $ trace_t $ metrics_t)

(* ---------- reproduce ---------- *)

let reproduce_cmd =
  let ids_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (table1..table5, fig1..fig7, ablation_*).")
  in
  let scale_t =
    let parse s =
      match Experiments.Scale.of_string s with
      | Some t -> Ok t
      | None -> Error (`Msg "scale must be small, medium or full")
    in
    let print ppf s =
      Format.pp_print_string ppf (Experiments.Scale.to_string s)
    in
    Arg.(
      value
      & opt (conv (parse, print)) Experiments.Scale.Medium
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:"Experiment scale (small, medium, full).")
  in
  let run ids scale seed trace metrics =
    with_obs ~trace ~metrics @@ fun obs ->
    let ctx = Experiments.Context.create ~seed ~scale ~obs () in
    let entries =
      match ids with
      | [] -> Experiments.Registry.all
      | ids ->
          List.map
            (fun id ->
              match Experiments.Registry.find id with
              | Some e -> e
              | None ->
                  Obs.Error.invalid_input ~where:"reproduce"
                    ("unknown experiment id: " ^ id))
            ids
    in
    Experiments.Registry.run_all ~entries ctx Format.std_formatter
  in
  Cmd.v
    (Cmd.info "reproduce"
       ~doc:"Regenerate the paper's tables and figures (see DESIGN.md)")
    Term.(const run $ ids_t $ scale_t $ seed_t $ trace_t $ metrics_t)

let () =
  let doc = "predictive performance models for superscalar processors" in
  let info = Cmd.info "archpred" ~version:"1.0.0" ~doc in
  let cmds =
    [
      benchmarks_cmd;
      simulate_cmd;
      sample_cmd;
      train_cmd;
      worker_cmd;
      predict_cmd;
      served_cmd;
      search_cmd;
      sensitivity_cmd;
      reproduce_cmd;
    ]
  in
  (* cmdliner runs the subcommand an unambiguous prefix names, so the
     deleted [serve] would start [served]: a subcommand is named in
     full or not at all. *)
  let names = List.map Cmd.name cmds in
  (match Sys.argv with
  | [||] | [| _ |] -> ()
  | argv ->
      let arg = argv.(1) in
      if not (String.starts_with ~prefix:"-" arg || List.mem arg names) then begin
        Format.eprintf "archpred: unknown command %S; the commands are %s@." arg
          (String.concat ", " names);
        exit Cmd.Exit.cli_error
      end);
  exit (Cmd.eval (Cmd.group info cmds))
