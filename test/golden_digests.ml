(* Golden digests of trained models.

   Prints one line per fixed, small training configuration: a name and
   the CRC-32 of the model's canonical serialisation
   ([Persist.to_string]), or of the float bits of the stepwise linear
   baseline, of raw subset scores and of least-squares moments, or the
   bits of one discrepancy value.  [runtest] diffs this output against
   [golden_digests.expected], so any change to the bits a configuration
   trains fails the suite.  A deliberate change is recorded by
   regenerating the table, which then shows in the diff:

     dune build @test/runtest; dune promote test/golden_digests.expected *)

module Core = Archpred_core
module Build = Core.Build
module Config = Core.Config
module Response = Core.Response
module Paper_space = Core.Paper_space
module Rng = Archpred_stats.Rng
module Linreg = Archpred_linreg.Model
module Ils = Archpred_linalg.Incremental_ls
module Matrix = Archpred_linalg.Matrix
module Rbf = Archpred_rbf
module Design = Archpred_design
module Shard = Archpred_shard
module Fault = Archpred_fault.Fault

let crc s = Core.Crc32.to_hex (Core.Crc32.string s)
let model (t : Build.trained) = Core.Persist.to_string t.Build.predictor
let line name digest = Printf.printf "%-28s %s\n" name digest

let base ~seed =
  Config.default
  |> Config.with_rng (Rng.create seed)
  |> Config.with_domains 1
  |> Config.with_lhs_candidates 10

let smooth = Response.synthetic_smooth ~dim:9

let mcf =
  Response.simulator ~trace_length:2_000 Archpred_workloads.Spec2000.mcf

let train name ~response ~n ~seed =
  let t =
    Build.train
      ~config:(base ~seed |> Config.with_sample_size n)
      ~space:Paper_space.space ~response ()
  in
  line name (crc (model t))

(* Every size step is pinned, not just the final model, so a drift that
   only shows at one step of the schedule is still caught. *)
let accuracy name ~response ~seed ~stream =
  let test_rng = Rng.create (seed + 1) in
  let test_points = Paper_space.test_points test_rng ~n:10 in
  let test_responses = Array.map response.Response.eval test_points in
  let config =
    base ~seed |> Config.with_stream_refit stream
    |> Config.with_refit_full_every (if stream then 2 else 0)
  in
  let h =
    Build.build_to_accuracy ~config ~space:Paper_space.space ~response
      ~sizes:[ 20; 30; 40 ] ~test_points ~test_responses ~target_mean_pct:0.
      ()
  in
  List.iter
    (fun (s : Build.step) ->
      line (Printf.sprintf "%s.n%d" name s.Build.size) (crc (model s.Build.trained)))
    h.Build.steps

let float_bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let stepwise name ~n ~seed =
  let rng = Rng.create seed in
  let points = Paper_space.test_points rng ~n in
  let responses = Array.map smooth.Response.eval points in
  let m = Linreg.stepwise ~points ~responses () in
  let text =
    String.concat " "
      (Format.asprintf "%a" (fun ppf m -> Linreg.pp ppf m) m
      :: float_bits (Linreg.sigma2 m)
      :: Array.to_list (Array.map float_bits (Linreg.coefficients m)))
  in
  line name (crc text)

(* A trained model only sees the subset scores through the choices they
   make, and small drifts rarely flip one.  This row pins the scores
   themselves: the error variance and coefficient bits of 200 subsets of
   one RBF candidate design, walked the way selection walks them — each
   subset toggles one to three columns of the previous one, so
   consecutive factors share prefixes. *)
let subset_scores name ~n ~seed =
  let rng = Rng.create seed in
  let points = Paper_space.test_points rng ~n in
  let responses = Array.map smooth.Response.eval points in
  let tree =
    Archpred_regtree.Tree.build ~p_min:1 ~dim:9 ~points ~responses ()
  in
  let centers =
    Array.map
      (fun c -> c.Rbf.Tree_centers.center)
      (Rbf.Tree_centers.of_tree ~alpha:7. tree)
  in
  let design = Rbf.Network.design_matrix centers points in
  let ils = Ils.create ~jitter:1e-8 ~design ~responses () in
  let fac = Ils.factor ils in
  let cols = Array.length centers in
  let selected = Array.make cols false and size = ref 0 in
  let buf = Buffer.create 4096 in
  for _ = 1 to 200 do
    (* Columns are only added while fewer than a third of the sample's
       size are in, so every subset stays well below the row count. *)
    for _ = 0 to Rng.int rng 3 do
      let j = Rng.int rng cols in
      if selected.(j) then begin
        selected.(j) <- false;
        decr size
      end
      else if !size < n / 3 then begin
        selected.(j) <- true;
        incr size
      end
    done;
    let subset = List.filter (fun j -> selected.(j)) (List.init cols Fun.id) in
    if Ils.set fac subset then begin
      (match Ils.sigma2 fac with
      | Some s2 -> Buffer.add_string buf (float_bits s2)
      | None -> Buffer.add_string buf "none");
      Array.iter (fun w -> Buffer.add_string buf (float_bits w)) (Ils.solve fac)
    end
    else Buffer.add_string buf "singular";
    Buffer.add_char buf '\n'
  done;
  line name (crc (Buffer.contents buf))

(* The two quadratic loops of training at full size: the pair sums of
   both discrepancies on a paper-space LHS sample (the candidate scoring
   of [Optimize.best_lhs]), and the Gram and H'y moments of a 400-row
   design as wide as a mid-size RBF candidate set.  The rows above train
   on 80 points or fewer; these reach every block boundary of the
   kernels at training sizes. *)
let discrepancy name ~n ~seed =
  let points = Design.Lhs.sample (Rng.create seed) Paper_space.space ~n in
  line
    (Printf.sprintf "%s.star.n%d" name n)
    (float_bits (Design.Discrepancy.l2_star points));
  line
    (Printf.sprintf "%s.centered.n%d" name n)
    (float_bits (Design.Discrepancy.centered_l2 points))

let moments name ~rows ~cols ~seed =
  let rng = Rng.create seed in
  (* Dense like an RBF design, with exact zeros and negatives mixed in. *)
  let design =
    Matrix.init rows cols (fun _ _ ->
        if Rng.int rng 8 = 0 then 0. else Rng.unit_float rng -. 0.25)
  in
  let responses = Array.init rows (fun _ -> Rng.unit_float rng -. 0.5) in
  let ils = Ils.create ~design ~responses () in
  let buf = Buffer.create (8 * cols * (cols + 1)) in
  for a = 0 to cols - 1 do
    for b = 0 to cols - 1 do
      Buffer.add_int64_le buf (Int64.bits_of_float (Ils.gram ils a b))
    done
  done;
  for a = 0 to cols - 1 do
    Buffer.add_int64_le buf (Int64.bits_of_float (Ils.hy ils a))
  done;
  line (Printf.sprintf "%s.%dx%d" name rows cols) (crc (Buffer.contents buf))

(* The crash-safe paths pinned against one single-process twin.  The
   twin draws from the root generator in the order a sharded run does:
   the held-out test points first, then the build.  Each row after it
   must print the twin's digest: two workers sharing a run directory, a
   worker killed mid-unit whose replacement finishes the run, and the
   one-worker run directory of [--checkpoint] at two domains. *)
let shard_spec =
  {
    Shard.Spec.benchmark = "mcf";
    metric = Response.Cpi;
    seed = 7;
    trace_length = 2_000;
    sample_size = 40;
    test_n = 10;
    lhs_candidates = 10;
    criterion = Rbf.Criteria.Aicc;
    p_min_grid = Config.default_p_min_grid;
    alpha_grid = Config.default_alpha_grid;
    shard_unit = 4;
    stream_refit = false;
    refit_full_every = 0;
    mode = Shard.Spec.Train;
  }

(* The paper's redraw-per-size schedule on the simulator, drawn the way
   a run directory draws it: the held-out test points first, then every
   size step from the same generator.  The accuracy-mode run directory
   of the same spec must print the last step's digest. *)
let accuracy_spec =
  {
    shard_spec with
    Shard.Spec.mode =
      Shard.Spec.Accuracy { sizes = [ 20; 30 ]; target_mean_pct = 0. };
  }

let accuracy_mcf name =
  let s = accuracy_spec in
  let rng = Rng.create s.Shard.Spec.seed in
  let test_points = Paper_space.test_points rng ~n:s.Shard.Spec.test_n in
  let response = Shard.Spec.response s in
  let test_responses = Response.evaluate_many ~domains:1 response test_points in
  let config =
    Shard.Spec.config s |> Config.with_rng rng |> Config.with_domains 1
  in
  let h =
    Build.build_to_accuracy ~config ~space:Paper_space.space ~response
      ~sizes:[ 20; 30 ] ~test_points ~test_responses ~target_mean_pct:0. ()
  in
  List.iter
    (fun (s : Build.step) ->
      line (Printf.sprintf "%s.n%d" name s.Build.size) (crc (model s.Build.trained)))
    h.Build.steps

let shard_twin name =
  let rng = Rng.create shard_spec.Shard.Spec.seed in
  ignore (Paper_space.test_points rng ~n:shard_spec.Shard.Spec.test_n);
  let config =
    Shard.Spec.config shard_spec |> Config.with_rng rng
    |> Config.with_domains 1
  in
  let response = Shard.Spec.response shard_spec in
  line name (crc (model (Build.train ~config ~space:Paper_space.space ~response ())))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (_, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let with_run_dir f =
  let dir = Filename.temp_file "golden_shard" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let shard_row name drive =
  with_run_dir @@ fun dir ->
  Shard.Spec.save ~dir shard_spec;
  Shard.Claim.init ~dir;
  Shard.Journal.init ~dir;
  drive dir;
  let fingerprint = Shard.Spec.fingerprint shard_spec in
  let scan = Shard.Journal.scan_dir ~dir ~fingerprint in
  let outcome =
    Core.Pipeline.assemble (Shard.Spec.pipeline shard_spec)
      (Shard.Journal.stage_values scan)
  in
  line name (crc (model outcome.Core.Pipeline.final))

let two_workers dir =
  List.iter Domain.join
    (List.init 2 (fun k ->
         Domain.spawn (fun () ->
             Shard.Worker.run ~dir ~id:(Printf.sprintf "w%d" k) ~poll:0.002 ())))

(* [w0] dies at its second claimed unit; its incomplete claims are
   released as the coordinator releases a casualty's, and [w0.r1]
   finishes the run. *)
let killed_and_resumed dir =
  Fault.reset ();
  Fault.arm ~site:"shard.unit" ~after:2 ();
  (match Shard.Worker.run ~dir ~id:"w0" ~poll:0.002 () with
  | () -> failwith "golden_digests: the shard.unit fault did not fire"
  | exception Fault.Injected _ -> ());
  Fault.reset ();
  let scan =
    Shard.Journal.scan_dir ~dir ~fingerprint:(Shard.Spec.fingerprint shard_spec)
  in
  Shard.Claim.release_incomplete ~dir ~owner:"w0"
    ~complete:(fun ~stage ~lo ~hi -> Shard.Journal.unit_complete scan ~stage ~lo ~hi);
  Shard.Worker.run ~dir ~id:"w0.r1" ~poll:0.002 ()

(* The accuracy-mode run directory of [accuracy_spec], one worker in
   this process: its final model is the n = 30 step's. *)
let shard_accuracy name =
  with_run_dir @@ fun dir ->
  let outcome =
    Shard.Coordinator.run ~dir ~spec:accuracy_spec
      ~workers:(Shard.Coordinator.In_process { domains = 1 })
      ()
  in
  line name
    (crc (model outcome.Shard.Coordinator.result.Core.Pipeline.final))

(* What [archpred train --checkpoint DIR] runs: the coordinator's
   one in-process worker, computing two units at a time over two
   domains. *)
let checkpointed name =
  with_run_dir @@ fun dir ->
  let outcome =
    Shard.Coordinator.run ~dir ~spec:shard_spec
      ~workers:(Shard.Coordinator.In_process { domains = 2 })
      ()
  in
  line name
    (crc (model outcome.Shard.Coordinator.result.Core.Pipeline.final))

let () =
  print_string
    "# name                       crc32 of Persist.to_string (or of the\n\
     # stepwise terms and coefficient bits, or of moment bits), or the\n\
     # bits of one discrepancy.  Regenerate deliberately with\n\
     # dune build @test/runtest; dune promote test/golden_digests.expected\n";
  train "train.smooth.n40" ~response:smooth ~n:40 ~seed:99;
  train "train.mcf.n40" ~response:mcf ~n:40 ~seed:7;
  accuracy "accuracy.smooth" ~response:smooth ~seed:31 ~stream:false;
  accuracy "stream_refit.smooth" ~response:smooth ~seed:31 ~stream:true;
  accuracy "stream_refit.mcf" ~response:mcf ~seed:7 ~stream:true;
  stepwise "linreg.stepwise.n30" ~n:30 ~seed:17;
  stepwise "linreg.stepwise.n80" ~n:80 ~seed:18;
  subset_scores "subset_scores.n60" ~n:60 ~seed:19;
  discrepancy "discrepancy" ~n:37 ~seed:23;
  discrepancy "discrepancy" ~n:400 ~seed:24;
  moments "ils.moments" ~rows:400 ~cols:389 ~seed:25;
  shard_twin "shard.twin.mcf.n40";
  shard_row "shard.w2.mcf.n40" two_workers;
  shard_row "shard.resumed.mcf.n40" killed_and_resumed;
  checkpointed "checkpoint.d2.mcf.n40";
  accuracy_mcf "accuracy.mcf";
  shard_accuracy "shard.accuracy.mcf.n30"
