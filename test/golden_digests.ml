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
  moments "ils.moments" ~rows:400 ~cols:389 ~seed:25
