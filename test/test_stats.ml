(* Tests for archpred.stats: PRNG, descriptive statistics, quantiles,
   histograms, correlation, distributions, sampling, error metrics and the
   parallel map. *)

module Rng = Archpred_stats.Rng
module Descriptive = Archpred_stats.Descriptive
module Quantile = Archpred_stats.Quantile
module Histogram = Archpred_stats.Histogram
module Correlation = Archpred_stats.Correlation
module Dist = Archpred_stats.Distributions
module Sampling = Archpred_stats.Sampling
module Error_metrics = Archpred_stats.Error_metrics
module Parallel = Archpred_stats.Parallel

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref true in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then same := false
  done;
  Alcotest.(check bool) "different seeds differ" false !same

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let c1 = Rng.int64 child in
  (* Re-derive: same split point gives the same child stream. *)
  let parent2 = Rng.create 7 in
  let child2 = Rng.split parent2 in
  Alcotest.(check int64) "split deterministic" c1 (Rng.int64 child2)

let test_rng_copy_replays () =
  let a = Rng.create 9 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.int64 a) (Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of bounds: %d" v
  done

let test_rng_int_covers_all () =
  let rng = Rng.create 3 in
  let seen = Array.make 7 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int rng 7) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_unit_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.unit_float rng in
    if v < 0. || v >= 1. then Alcotest.failf "unit_float out of range: %f" v
  done

let test_rng_unit_float_mean () =
  let rng = Rng.create 11 in
  let n = 50_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.unit_float rng
  done;
  let mean = !acc /. float_of_int n in
  if abs_float (mean -. 0.5) > 0.01 then
    Alcotest.failf "unit_float mean suspicious: %f" mean

(* ---------- Descriptive ---------- *)

let test_mean_known () = check_float "mean" 2.5 (Descriptive.mean [| 1.; 2.; 3.; 4. |])

let test_variance_known () =
  (* sample variance of 2,4,4,4,5,5,7,9 is 32/7; std is its square root *)
  check_float ~eps:1e-9 "variance" (32. /. 7.)
    (Descriptive.std [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] ** 2.)

let test_std_constant () = check_float "std of constant" 0. (Descriptive.std [| 5.; 5.; 5. |])
let test_min_max () =
  check_float "min" (-3.) (Descriptive.summarize [| 2.; -3.; 7. |]).Descriptive.min;
  check_float "max" 7. (Descriptive.max [| 2.; -3.; 7. |])

let test_empty_mean_raises () =
  Alcotest.check_raises "empty mean"
    (Invalid_argument "Descriptive.mean: empty array") (fun () ->
      ignore (Descriptive.mean [||]))

let test_summarize () =
  let s = Descriptive.summarize [| 1.; 2.; 3. |] in
  Alcotest.(check int) "n" 3 s.Descriptive.n;
  check_float "mean" 2. s.Descriptive.mean;
  check_float "min" 1. s.Descriptive.min;
  check_float "max" 3. s.Descriptive.max

let prop_mean_bounded =
  qtest "mean within min..max"
    QCheck2.Gen.(array_size (int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let m = Descriptive.mean xs in
      m >= Array.fold_left Float.min xs.(0) xs -. 1e-6
      && m <= Descriptive.max xs +. 1e-6)

let prop_variance_nonneg =
  qtest "variance nonnegative"
    QCheck2.Gen.(array_size (int_range 2 50) (float_range (-1e3) 1e3))
    (fun xs -> Descriptive.std xs >= 0.)

let prop_sum_matches_fold =
  qtest "kahan sum close to fold"
    QCheck2.Gen.(array_size (int_range 1 100) (float_range (-1e3) 1e3))
    (fun xs ->
      let naive = Array.fold_left ( +. ) 0. xs in
      feq ~eps:1e-6 naive
        (Descriptive.mean xs *. float_of_int (Array.length xs)))

(* ---------- Quantile ---------- *)

let quantile xs q = List.hd (Quantile.quantiles xs [ q ])
let test_median_odd () = check_float "median odd" 2. (quantile [| 3.; 1.; 2. |] 0.5)
let test_median_even () = check_float "median even" 2.5 (quantile [| 4.; 1.; 3.; 2. |] 0.5)

let test_quantile_extremes () =
  let xs = [| 5.; 1.; 3. |] in
  check_float "q0" 1. (quantile xs 0.);
  check_float "q1" 5. (quantile xs 1.)

let test_quantile_interpolation () =
  check_float "q0.25 of 1..5" 2. (quantile [| 1.; 2.; 3.; 4.; 5. |] 0.25)

let test_iqr () =
  match Quantile.quantiles [| 1.; 2.; 3.; 4.; 5. |] [ 0.25; 0.75 ] with
  | [ q1; q3 ] -> check_float "iqr 1..5" 2. (q3 -. q1)
  | _ -> Alcotest.fail "expected 2 quantiles"

let test_quantiles_list () =
  match Quantile.quantiles [| 1.; 2.; 3. |] [ 0.; 0.5; 1. ] with
  | [ a; b; c ] ->
      check_float "q0" 1. a;
      check_float "q.5" 2. b;
      check_float "q1" 3. c
  | _ -> Alcotest.fail "expected 3 quantiles"

let prop_quantile_monotone =
  qtest "quantile monotone in q"
    QCheck2.Gen.(
      pair
        (array_size (int_range 1 30) (float_range (-100.) 100.))
        (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (xs, (q1, q2)) ->
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      quantile xs lo <= quantile xs hi +. 1e-9)

(* ---------- Histogram ---------- *)

let test_histogram_basic () =
  let h = Histogram.of_array ~lo:0. ~hi:10. ~bins:5 [| 0.5; 9.9; 5. |] in
  Alcotest.(check int) "bin0" 1 (Histogram.count h 0);
  Alcotest.(check int) "bin4" 1 (Histogram.count h 4);
  Alcotest.(check int) "bin2" 1 (Histogram.count h 2);
  Alcotest.(check int) "total" 3 (Histogram.total h)

let test_histogram_clamps () =
  let h = Histogram.of_array ~lo:0. ~hi:1. ~bins:4 [| -5.; 5. |] in
  Alcotest.(check int) "low clamp" 1 (Histogram.count h 0);
  Alcotest.(check int) "high clamp" 1 (Histogram.count h 3)

let test_histogram_ranges () =
  let h = Histogram.of_array ~lo:0. ~hi:8. ~bins:4 [||] in
  let lo, hi = Histogram.bin_range h 1 in
  check_float "range lo" 2. lo;
  check_float "range hi" 4. hi

let prop_histogram_conserves =
  qtest "histogram total = array length"
    QCheck2.Gen.(array_size (int_range 0 200) (float_range (-2.) 2.))
    (fun xs ->
      let h = Histogram.of_array ~lo:0. ~hi:1. ~bins:7 xs in
      Histogram.total h = Array.length xs)

(* ---------- Correlation ---------- *)

let test_spearman_monotone () =
  (* any monotone transform has rank correlation 1 *)
  check_float "spearman monotone" 1.
    (Correlation.spearman [| 1.; 2.; 3.; 4. |] [| 1.; 8.; 27.; 1000. |]);
  check_float "spearman antitone" (-1.)
    (Correlation.spearman [| 1.; 2.; 3. |] [| 3.; 2.; 1. |])

let test_spearman_ties () =
  let r = Correlation.spearman [| 1.; 1.; 2. |] [| 2.; 2.; 4. |] in
  check_float "spearman ties" 1. r;
  check_float "constant sample" 0.
    (Correlation.spearman [| 1.; 1.; 1. |] [| 1.; 2.; 3. |])

(* ---------- Distributions ---------- *)

let test_geometric_mean_matches () =
  let rng = Rng.create 21 in
  let n = 40_000 and p = 0.3 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Dist.geometric rng ~p
  done;
  let mean = float_of_int !acc /. float_of_int n in
  let expect = (1. -. p) /. p in
  if abs_float (mean -. expect) > 0.1 then
    Alcotest.failf "geometric mean %f, expected %f" mean expect

let test_geometric_p1 () =
  let rng = Rng.create 2 in
  Alcotest.(check int) "p=1 always 0" 0 (Dist.geometric rng ~p:1.)

let test_zipf_bounds () =
  let rng = Rng.create 24 in
  for _ = 1 to 5_000 do
    let v = Dist.zipf rng ~n:100 ~s:1.1 in
    if v < 0 || v >= 100 then Alcotest.failf "zipf out of bounds %d" v
  done

let test_zipf_skew () =
  let rng = Rng.create 25 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let v = Dist.zipf rng ~n:100 ~s:1.2 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true
    (counts.(0) > counts.(50) && counts.(0) > counts.(10))

let test_zipf_s0_uniformish () =
  let rng = Rng.create 26 in
  let counts = Array.make 4 0 in
  for _ = 1 to 8_000 do
    counts.(Dist.zipf rng ~n:4 ~s:0.) <- counts.(Dist.zipf rng ~n:4 ~s:0.) + 1
  done;
  Array.iter
    (fun c ->
      if c < 1_200 then Alcotest.failf "s=0 zipf not uniform: %d" c)
    counts

let test_categorical () =
  let rng = Rng.create 27 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Dist.categorical rng [| 1.; 2.; 7. |] in
    counts.(i) <- counts.(i) + 1
  done;
  let f i = float_of_int counts.(i) /. 30_000. in
  if abs_float (f 0 -. 0.1) > 0.02 then Alcotest.failf "cat0 %f" (f 0);
  if abs_float (f 2 -. 0.7) > 0.02 then Alcotest.failf "cat2 %f" (f 2)

let test_alias_matches_weights () =
  let rng = Rng.create 28 in
  let table = Dist.alias_of_weighted [| ("a", 1.); ("b", 3.) |] in
  let b = ref 0 in
  for _ = 1 to 40_000 do
    if Dist.alias_draw rng table = "b" then incr b
  done;
  let f = float_of_int !b /. 40_000. in
  if abs_float (f -. 0.75) > 0.02 then Alcotest.failf "alias b %f" f

(* ---------- Sampling ---------- *)

let prop_permutation_valid =
  qtest "permutation is a bijection"
    QCheck2.Gen.(pair (int_range 1 100) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let p = Sampling.permutation rng n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.for_all Fun.id seen)

(* ---------- Error metrics ---------- *)

let test_error_metrics_known () =
  let m =
    Error_metrics.evaluate ~actual:[| 1.; 2.; 4. |] ~predicted:[| 1.1; 1.8; 4. |]
  in
  check_float ~eps:1e-6 "mean" ((10. +. 10. +. 0.) /. 3.) m.Error_metrics.mean_pct;
  check_float ~eps:1e-6 "max" 10. m.Error_metrics.max_pct

let test_error_metrics_zero_actual () =
  Alcotest.check_raises "zero actual"
    (Invalid_argument "Error_metrics: actual value is zero") (fun () ->
      ignore (Error_metrics.evaluate ~actual:[| 0. |] ~predicted:[| 1. |]))

let test_error_metrics_perfect () =
  let m = Error_metrics.evaluate ~actual:[| 2.; 3. |] ~predicted:[| 2.; 3. |] in
  check_float "perfect mean" 0. m.Error_metrics.mean_pct;
  check_float "perfect rmse" 0. m.Error_metrics.rmse

(* ---------- Parallel ---------- *)

let test_parallel_matches_sequential () =
  let xs = Array.init 1000 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int))
    "parallel = map" (Array.map f xs)
    (Parallel.map ~domains:4 f xs)

let test_parallel_single_domain () =
  let xs = [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "domains=1" [| 2; 4; 6 |]
    (Parallel.map ~domains:1 (fun x -> 2 * x) xs)

let test_parallel_exception () =
  Alcotest.check_raises "propagates" (Failure "boom") (fun () ->
      ignore
        (Parallel.map ~domains:3
           (fun x -> if x = 5 then failwith "boom" else x)
           (Array.init 10 Fun.id)))

let test_parallel_empty () =
  Alcotest.(check (array int)) "empty" [||]
    (Parallel.map ~domains:4 (fun x -> x) [||])

let test_parallel_domain_counts () =
  let xs = Array.init 97 (fun i -> i - 40) in
  let f x = (3 * x * x) - (7 * x) + 1 in
  let expect = Array.map f xs in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" d)
        expect
        (Parallel.map ~domains:d f xs))
    [ 1; 2; 4; 7; 200 ]

let test_parallel_init_matches () =
  let f i = float_of_int i /. 3. in
  Alcotest.(check (array (float 0.)))
    "init = Array.init" (Array.init 53 f)
    (Parallel.init ~domains:4 53 f)

let test_parallel_exception_lowest_task () =
  (* Indices 3 and 5 both fail; the lowest failing index wins whatever
     the scheduling and the domain count, so the surfaced exception is
     always [Failure "3"]. *)
  for _ = 1 to 20 do
    Alcotest.check_raises "lowest index's exception" (Failure "3") (fun () ->
        ignore
          (Parallel.map ~domains:4
             (fun x ->
               if x = 3 || x = 5 then failwith (string_of_int x) else x)
             (Array.init 10 Fun.id)))
  done

(* A deterministic busy loop of [k] steps, opaque to the optimiser. *)
let spin k =
  let acc = ref 0 in
  for j = 1 to k do
    acc := (!acc * 31) + j
  done;
  Sys.opaque_identity !acc |> ignore

(* Skewed cost: the flagged elements run 50x longer, so claimed indices
   finish far out of order. *)
let skewed_cost =
  QCheck2.Gen.(
    triple (int_range 1 8) (int_range 0 40) (list_size (int_range 0 6) (int_range 0 39)))

let prop_parallel_skewed_cost =
  qtest ~count:60 "init/map = Array.init/map under skewed cost" skewed_cost
    (fun (d, n, slow) ->
      let cost i = spin (if List.mem i slow then 50_000 else 1_000) in
      let f i =
        cost i;
        (i * 7) - 3
      in
      Parallel.init ~domains:d n f = Array.init n f
      && Parallel.map ~domains:d f (Array.init n Fun.id) = Array.init n f)

let prop_parallel_lowest_failing_index =
  qtest ~count:100 "lowest failing index surfaces at every domain count"
    QCheck2.Gen.(
      triple (int_range 1 8) (int_range 1 40)
        (list_size (int_range 1 5) (int_range 0 39)))
    (fun (d, n, fails) ->
      let fails = List.filter (fun i -> i < n) fails in
      let f i =
        spin (if i mod 3 = 0 then 20_000 else 500);
        if List.mem i fails then failwith (string_of_int i) else i
      in
      match (Parallel.init ~domains:d n f, fails) with
      | _, [] -> true
      | _, _ :: _ -> false
      | exception Failure m ->
          m = string_of_int (List.fold_left min max_int fails))

let test_parallel_no_serial_head () =
  (* Each element waits (up to 2 s) until a second element has started,
     then records how many had started when it finished.  If element 0
     ran alone before the others were handed out, the first finish would
     see one start.  Needs a worker domain in the pool. *)
  if Parallel.default_domains () < 2 then ()
  else begin
    let started = Atomic.make 0 in
    let first_finish = Atomic.make (-1) in
    let f i =
      Atomic.incr started;
      let t0 = Archpred_obs.now_ns () in
      while
        Atomic.get started < 2 && Archpred_obs.seconds_since t0 < 2.
      do
        Domain.cpu_relax ()
      done;
      ignore (Atomic.compare_and_set first_finish (-1) (Atomic.get started));
      i
    in
    Alcotest.(check (array int)) "results" (Array.init 16 Fun.id)
      (Parallel.init ~domains:2 16 f);
    Alcotest.(check bool) "two elements started before the first finished"
      true
      (Atomic.get first_finish >= 2)
  end

let prop_parallel_matches_map =
  qtest "parallel map = Array.map for any domain count"
    QCheck2.Gen.(
      pair (int_range 1 9) (array_size (int_range 0 60) (int_range (-1000) 1000)))
    (fun (d, xs) ->
      Parallel.map ~domains:d (fun x -> (2 * x) - 1) xs
      = Array.map (fun x -> (2 * x) - 1) xs)

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split deterministic" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers residues" `Quick test_rng_int_covers_all;
          Alcotest.test_case "unit_float range" `Quick test_rng_unit_float_range;
          Alcotest.test_case "unit_float mean" `Quick test_rng_unit_float_mean;
        ] );
      ( "descriptive",
        [
          Alcotest.test_case "mean" `Quick test_mean_known;
          Alcotest.test_case "variance" `Quick test_variance_known;
          Alcotest.test_case "std constant" `Quick test_std_constant;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "empty raises" `Quick test_empty_mean_raises;
          Alcotest.test_case "summarize" `Quick test_summarize;
          prop_mean_bounded;
          prop_variance_nonneg;
          prop_sum_matches_fold;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "extremes" `Quick test_quantile_extremes;
          Alcotest.test_case "interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "iqr" `Quick test_iqr;
          Alcotest.test_case "list" `Quick test_quantiles_list;
          prop_quantile_monotone;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "clamps" `Quick test_histogram_clamps;
          Alcotest.test_case "bin ranges" `Quick test_histogram_ranges;
          prop_histogram_conserves;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "spearman monotone" `Quick test_spearman_monotone;
          Alcotest.test_case "spearman ties" `Quick test_spearman_ties;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean_matches;
          Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
          Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf s=0 uniform" `Quick test_zipf_s0_uniformish;
          Alcotest.test_case "categorical" `Quick test_categorical;
          Alcotest.test_case "alias table" `Quick test_alias_matches_weights;
        ] );
      ( "sampling",
        [
          prop_permutation_valid;
        ] );
      ( "error_metrics",
        [
          Alcotest.test_case "known values" `Quick test_error_metrics_known;
          Alcotest.test_case "zero actual raises" `Quick test_error_metrics_zero_actual;
          Alcotest.test_case "perfect prediction" `Quick test_error_metrics_perfect;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "single domain" `Quick test_parallel_single_domain;
          Alcotest.test_case "exception propagation" `Quick test_parallel_exception;
          Alcotest.test_case "empty array" `Quick test_parallel_empty;
          Alcotest.test_case "any domain count" `Quick test_parallel_domain_counts;
          Alcotest.test_case "init matches" `Quick test_parallel_init_matches;
          Alcotest.test_case "exception from lowest task" `Quick
            test_parallel_exception_lowest_task;
          prop_parallel_skewed_cost;
          prop_parallel_lowest_failing_index;
          Alcotest.test_case "no serial first element" `Quick
            test_parallel_no_serial_head;
          prop_parallel_matches_map;
        ] );
    ]
