(* The training half of a workload: `archpred train` run as a user runs
   it, and the traced reconstruction of the same build from the
   libraries' public calls, timing the calls into each layer. *)

module Obs = Archpred_obs
module Core = Archpred_core
module Design = Archpred_design
module Stats = Archpred_stats

type build =
  | Schedule of int list
      (** the paper's redraw-per-size procedure, run to [--target-error 0]
          so that every size is built *)
  | Sample of int  (** one build at this sample size *)

type config = { build : build; trace_length : int; test_points : int }

let benchmark = "mcf"

let cli_args c ~seed ~save =
  [ "train"; "-b"; benchmark ]
  @ (match c.build with
    | Schedule sizes ->
        [ "--target-error"; "0"; "--sizes";
          String.concat "," (List.map string_of_int sizes) ]
    | Sample n -> [ "-n"; string_of_int n ])
  @ [ "--trace-length"; string_of_int c.trace_length;
      "--test-points"; string_of_int c.test_points;
      "--seed"; string_of_int seed; "--save"; save ]

let file_crc path =
  Core.Crc32.to_hex
    (Core.Crc32.string (In_channel.with_open_bin path In_channel.input_all))

type cli = {
  wall_s : float;
  setup_s : float;  (** spawn to the first stdout line *)
  peak_mb : float;
  model_crc : string;
  test_error : string;  (** mean test error as printed *)
}

(* One `archpred train` run; [fail] hears about anything a user would
   call broken. *)
let run_cli ~fail ~exe ~domains c ~seed ~save =
  (try Sys.remove save with Sys_error _ -> ());
  let env = Proc.with_env [ ("ARCHPRED_DOMAINS", string_of_int domains) ] in
  let r = Proc.run ~env exe (cli_args c ~seed ~save) in
  let ok = match r.Proc.status with Unix.WEXITED 0 -> true | _ -> false in
  if not ok then fail ("archpred train: " ^ Proc.describe r.Proc.status);
  let test_error =
    match Perfbench.Parse.test_error_mean r.Proc.output with
    | Some e -> e
    | None ->
        fail "archpred train printed no test error line";
        "?"
  in
  let model_crc =
    match file_crc save with
    | crc -> crc
    | exception Sys_error e ->
        fail ("no model file: " ^ e);
        "?"
  in
  ( ok,
    {
      wall_s = r.Proc.wall_s;
      setup_s = Option.value r.Proc.first_line_s ~default:r.Proc.wall_s;
      peak_mb =
        (match r.Proc.peak_kb with
        | Some kb -> float_of_int kb /. 1024.
        | None ->
            fail "no VmHWM read for archpred train";
            0.);
      model_crc;
      test_error;
    } )

let profile () =
  match Archpred_workloads.Spec2000_extra.find benchmark with
  | Some p -> p
  | None -> failwith ("unknown benchmark " ^ benchmark)

let response ?(obs = Obs.null) c ~seed =
  Core.Response.simulator_metric ~obs ~trace_length:c.trace_length ~seed
    ~metric:Core.Response.Cpi (profile ())

(* The CLI draws its test points first from the root generator. *)
let test_set ~domains response c ~seed =
  let rng = Stats.Rng.create seed in
  let test = Core.Paper_space.test_points rng ~n:c.test_points in
  (rng, test, Core.Response.evaluate_many ~domains response test)

(* Re-derive the printed test error from the saved model and an
   independent simulation of the test set. *)
let check_test_error ~fail ~domains c ~seed ~model (cli : cli) =
  let _, test, actual = test_set ~domains (response c ~seed) c ~seed in
  let err = Core.Predictor.errors_on (Core.Persist.load model) ~points:test ~actual in
  let mine = Printf.sprintf "%.2f" err.Stats.Error_metrics.mean_pct in
  if not (String.equal mine cli.test_error) then
    fail
      (Printf.sprintf "printed test error %s%% but the saved model scores %s%%"
         cli.test_error mine)

type layers = {
  trace_s : float;
  test_s : float;
  lhs_s : float;
  sample_s : float;
  tune_s : float;
  predictor_s : float;
  persist_s : float;
  rebuild_s : float;  (** wall of the whole reconstruction *)
  build_busy_s : float;
  select_busy_s : float;
  sim_runs : int;
  sim_instructions : int;
  lhs_candidates : int;
  tune_cells : int;
  argmin_agrees : bool;
  sample_cpi_crc : string;
  rebuilt_crc : string;
  rebuilt_test_error : string;
}

let timed acc f =
  let t0 = Obs.now_ns () in
  let v = f () in
  acc := !acc +. Proc.seconds_since t0;
  v

(* [Build.simulate]'s fast path: the sample in [sim_batch] chunks. *)
let simulate ~domains ~batch response points =
  let n = Array.length points in
  let out = Array.make n Float.nan in
  let pos = ref 0 in
  while !pos < n do
    let len = min batch (n - !pos) in
    let vals =
      Core.Response.evaluate_many ~domains response (Array.sub points !pos len)
    in
    Array.blit vals 0 out !pos len;
    pos := !pos + len
  done;
  out

let crc_floats crc xs =
  let b = Bytes.create 8 in
  Array.fold_left
    (fun crc x ->
      Bytes.set_int64_le b 0 (Int64.bits_of_float x);
      Core.Crc32.update crc (Bytes.unsafe_to_string b) ~pos:0 ~len:8)
    crc xs

(* Tune.tune's grid walk again, one call at a time on this domain: the
   busy seconds of tree growth and of center selection, and a check that
   the arg-min is the one Tune.tune returned. *)
let decompose ~build_busy ~select_busy ~(config : Core.Config.t) ~dim ~points
    ~responses (tune : Core.Tune.result) =
  let trees =
    List.map
      (fun p_min ->
        ( p_min,
          timed build_busy (fun () ->
              Archpred_regtree.Tree.build ~p_min ~dim ~points ~responses ()) ))
      config.Core.Config.p_min_grid
  in
  let best = ref None in
  Array.iter
    (fun (p_min, alpha) ->
      let tree = List.assoc p_min trees in
      let sel =
        timed select_busy (fun () ->
            Core.Tune.eval_cell ~criterion:config.Core.Config.criterion ~tree
              ~points ~responses ~alpha ())
      in
      let c = sel.Archpred_rbf.Selection.criterion in
      match !best with
      | Some (_, _, b) when not (c < b) -> ()
      | Some _ | None -> best := Some (p_min, alpha, c))
    (Core.Tune.cells config);
  match !best with
  | Some (p, a, c) ->
      p = tune.Core.Tune.p_min
      && Float.equal a tune.Core.Tune.alpha
      && Int64.equal (Int64.bits_of_float c)
           (Int64.bits_of_float tune.Core.Tune.criterion)
  | None -> false

(* bin/archpred.ml's train path, call for call: the same seed, domain
   count and generator draw order, so the saved model must be
   byte-identical to the CLI's. *)
let rebuild ~domains c ~seed ~save =
  let obs = Obs.create () in
  let trace_s = ref 0. and test_s = ref 0. and lhs_s = ref 0. in
  let sample_s = ref 0. and tune_s = ref 0. and predictor_s = ref 0. in
  let persist_s = ref 0. and build_busy = ref 0. and select_busy = ref 0. in
  let argmin_agrees = ref true and cpi_crc = ref 0l in
  let t0 = Obs.now_ns () in
  let response = timed trace_s (fun () -> response ~obs c ~seed) in
  let rng, test, actual =
    timed test_s (fun () -> test_set ~domains response c ~seed)
  in
  let base =
    Core.Config.default |> Core.Config.with_seed seed |> Core.Config.with_obs obs
    |> Core.Config.with_domains domains |> Core.Config.with_rng rng
    |> Core.Config.with_trace_length c.trace_length
  in
  let space = Core.Paper_space.space in
  let dim = Design.Space.dimension space in
  let build n =
    let config = Core.Config.validate (Core.Config.with_sample_size n base) in
    let plan =
      timed lhs_s (fun () ->
          Design.Optimize.best_lhs ~obs ~kind:Design.Discrepancy.Star
            ~candidates:config.Core.Config.lhs_candidates ~domains
            (Core.Config.rng_of config) space ~n)
    in
    let points = plan.Design.Optimize.points in
    let responses =
      timed sample_s (fun () ->
          simulate ~domains ~batch:config.Core.Config.sim_batch response points)
    in
    cpi_crc := crc_floats !cpi_crc responses;
    let tune =
      timed tune_s (fun () -> Core.Tune.tune ~config ~dim ~points ~responses ())
    in
    if
      not
        (decompose ~build_busy ~select_busy ~config ~dim ~points ~responses tune)
    then argmin_agrees := false;
    timed predictor_s (fun () ->
        Core.Predictor.make ~space
          ~network:tune.Core.Tune.selection.Archpred_rbf.Selection.network
          ~tree:tune.Core.Tune.tree ~p_min:tune.Core.Tune.p_min
          ~alpha:tune.Core.Tune.alpha ())
  in
  let errors p =
    timed predictor_s (fun () -> Core.Predictor.errors_on p ~points:test ~actual)
  in
  let final =
    match c.build with
    | Sample n -> build n
    | Schedule sizes ->
        (* Build.build_to_accuracy with target 0: every size is built and
           scored (no model reaches a 0% mean error); the last is kept. *)
        let last =
          List.fold_left
            (fun _ n ->
              let p = build n in
              ignore (errors p);
              Some p)
            None
            (List.sort_uniq Int.compare sizes)
        in
        Option.get last
  in
  let err = errors final in
  timed persist_s (fun () -> Core.Persist.save final save);
  let rebuild_s =
    Proc.seconds_since t0 -. !build_busy -. !select_busy
  in
  {
    trace_s = !trace_s;
    test_s = !test_s;
    lhs_s = !lhs_s;
    sample_s = !sample_s;
    tune_s = !tune_s;
    predictor_s = !predictor_s;
    persist_s = !persist_s;
    rebuild_s;
    build_busy_s = !build_busy;
    select_busy_s = !select_busy;
    sim_runs = Obs.counter obs "sim.runs";
    sim_instructions = Obs.counter obs "sim.instructions";
    lhs_candidates = Obs.counter obs "lhs.candidates";
    tune_cells = Obs.counter obs "tune.cells";
    argmin_agrees = !argmin_agrees;
    sample_cpi_crc = Core.Crc32.to_hex !cpi_crc;
    rebuilt_crc = file_crc save;
    rebuilt_test_error = Printf.sprintf "%.2f" err.Stats.Error_metrics.mean_pct;
  }

let stage_sum l =
  l.trace_s +. l.test_s +. l.lhs_s +. l.sample_s +. l.tune_s +. l.predictor_s
  +. l.persist_s
