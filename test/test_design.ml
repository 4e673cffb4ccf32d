(* Tests for archpred.design: transforms, parameters, spaces, latin
   hypercube sampling, discrepancies, sample optimisation, random designs,
   grids and Sobol sequences. *)

module Design = Archpred_design
module Transform = Design.Transform
module Parameter = Design.Parameter
module Space = Design.Space
module Lhs = Design.Lhs
module Discrepancy = Design.Discrepancy
module Optimize = Design.Optimize
module Grid = Design.Grid
module Rng = Archpred_stats.Rng

let check_float ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let space2 =
  Space.create
    [
      Parameter.make "a" ~lo:0. ~hi:10.;
      Parameter.make "b" ~lo:1. ~hi:16. ~transform:Transform.Log;
    ]

(* ---------- Transform ---------- *)

let centered_l2 ?domains pts =
  Discrepancy.compute ?domains Discrepancy.Centered pts

(* [n] independent uniform points in [space]'s unit cube. *)
let random_points rng space ~n =
  Array.init n (fun _ ->
      Array.init (Space.dimension space) (fun _ -> Rng.unit_float rng))

let test_linear_endpoints () =
  check_float "u=0" 5. (Transform.apply Transform.Linear ~lo:5. ~hi:9. 0.);
  check_float "u=1" 9. (Transform.apply Transform.Linear ~lo:5. ~hi:9. 1.)

let test_linear_descending () =
  check_float "descending" 24. (Transform.apply Transform.Linear ~lo:24. ~hi:7. 0.);
  check_float "descending mid" 15.5 (Transform.apply Transform.Linear ~lo:24. ~hi:7. 0.5)

let test_log_midpoint () =
  (* log scale: the midpoint of 1..16 is 4 *)
  check_float ~eps:1e-12 "log mid" 4. (Transform.apply Transform.Log ~lo:1. ~hi:16. 0.5)

let test_log_invalid () =
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Transform: log transform needs positive endpoints")
    (fun () -> ignore (Transform.apply Transform.Log ~lo:(-1.) ~hi:2. 0.5))

let prop_transform_roundtrip =
  qtest "apply/invert roundtrip"
    QCheck2.Gen.(pair (oneofl [ Transform.Linear; Transform.Log ]) (float_range 0. 1.))
    (fun (tr, u) ->
      let lo, hi = (2., 64.) in
      let v = Transform.apply tr ~lo ~hi u in
      abs_float (Transform.invert tr ~lo ~hi v -. u) < 1e-9)

(* ---------- Parameter ---------- *)

let test_level_count () =
  let p = Parameter.make "x" ~lo:0. ~hi:1. ~levels:(Parameter.Fixed 4) in
  Alcotest.(check int) "fixed" 4 (Parameter.level_count p ~sample_size:90);
  let q = Parameter.make "y" ~lo:0. ~hi:1. in
  Alcotest.(check int) "per-sample" 90 (Parameter.level_count q ~sample_size:90)

let test_level_coordinates () =
  let p = Parameter.make "x" ~lo:0. ~hi:1. ~levels:(Parameter.Fixed 3) in
  Alcotest.(check (array (float 1e-12)))
    "coords" [| 0.; 0.5; 1. |]
    (Parameter.level_coordinates p ~sample_size:10)

let test_snap () =
  let p = Parameter.make "x" ~lo:0. ~hi:1. ~levels:(Parameter.Fixed 5) in
  check_float "snap" 0.25 (Parameter.snap p ~sample_size:10 0.3);
  check_float "snap lo" 0. (Parameter.snap p ~sample_size:10 0.1);
  check_float "snap hi" 1. (Parameter.snap p ~sample_size:10 0.95)

let test_integer_rounding () =
  let p = Parameter.make "x" ~lo:1. ~hi:10. ~integer:true in
  check_float "integer decode" 6. (Parameter.decode p 0.55)

let test_parameter_validation () =
  Alcotest.check_raises "lo=hi" (Invalid_argument "Parameter.make: lo = hi")
    (fun () -> ignore (Parameter.make "x" ~lo:1. ~hi:1.));
  Alcotest.check_raises "levels<2"
    (Invalid_argument "Parameter.make: Fixed levels < 2") (fun () ->
      ignore (Parameter.make "x" ~lo:0. ~hi:1. ~levels:(Parameter.Fixed 1)))

(* ---------- Space ---------- *)

let test_space_dimension () = Alcotest.(check int) "dim" 2 (Space.dimension space2)

let test_space_decode () =
  let v = Space.decode space2 [| 0.5; 0.5 |] in
  check_float "a" 5. v.(0);
  check_float ~eps:1e-12 "b" 4. v.(1)

let test_space_roundtrip () =
  let u = [| 0.3; 0.7 |] in
  let u' = Space.encode space2 (Space.decode space2 u) in
  Array.iteri (fun i x -> check_float ~eps:1e-9 "roundtrip" u.(i) x) u'

let test_space_index_of () =
  Alcotest.(check int) "index" 1 (Space.index_of space2 "b");
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Space.index_of space2 "zzz"))

let test_space_duplicate_names () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Space.create: duplicate parameter a") (fun () ->
      ignore
        (Space.create
           [ Parameter.make "a" ~lo:0. ~hi:1.; Parameter.make "a" ~lo:0. ~hi:2. ]))

let test_sub_box () =
  let lo = [| 0.2; 0.2 |] and hi = [| 0.8; 0.4 |] in
  let p = Space.sub_box space2 ~lo ~hi [| 0.5; 0.5 |] in
  check_float "x" 0.5 p.(0);
  check_float ~eps:1e-12 "y" 0.3 p.(1)

let test_validate_point () =
  Alcotest.check_raises "outside"
    (Invalid_argument "Space: point outside unit cube") (fun () ->
      Space.validate_point space2 [| 1.5; 0.5 |])

(* ---------- LHS ---------- *)

let test_lhs_in_cube () =
  let rng = Rng.create 5 in
  let pts = Lhs.sample rng space2 ~n:30 in
  Array.iter (Space.validate_point space2) pts

let test_lhs_level_coverage () =
  (* A parameter with 4 levels must see all 4 levels in a 30-point LHS. *)
  let space =
    Space.create
      [
        Parameter.make "p" ~lo:0. ~hi:1. ~levels:(Parameter.Fixed 4);
        Parameter.make "q" ~lo:0. ~hi:1.;
      ]
  in
  let rng = Rng.create 6 in
  let pts = Lhs.sample rng space ~n:30 in
  let seen = Hashtbl.create 4 in
  Array.iter (fun p -> Hashtbl.replace seen p.(0) ()) pts;
  Alcotest.(check int) "4 levels seen" 4 (Hashtbl.length seen)

let test_lhs_balanced_levels () =
  (* levels appear equally often (+-1) *)
  let space =
    Space.create [ Parameter.make "p" ~lo:0. ~hi:1. ~levels:(Parameter.Fixed 5) ]
  in
  let rng = Rng.create 7 in
  let pts = Lhs.sample rng space ~n:25 in
  let counts = Hashtbl.create 5 in
  Array.iter
    (fun p ->
      Hashtbl.replace counts p.(0)
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts p.(0))))
    pts;
  Hashtbl.iter
    (fun _ c -> if c <> 5 then Alcotest.failf "unbalanced level count %d" c)
    counts

let test_lhs_rejects_small_n () =
  let rng = Rng.create 8 in
  Alcotest.check_raises "n<2" (Invalid_argument "Lhs.sample: n < 2") (fun () ->
      ignore (Lhs.sample rng space2 ~n:1))

(* ---------- Discrepancy ---------- *)

(* Brute-force 1-D L2-star discrepancy:
   D^2 = integral_0^1 (F_n(t) - t)^2 dt, computable exactly piecewise. *)
let brute_force_l2_star_1d points =
  let xs = Array.map (fun p -> p.(0)) points in
  Array.sort compare xs;
  let n = Array.length xs in
  let nf = float_of_int n in
  (* integrate over segments between sorted points *)
  let integral = ref 0. in
  let segment f a b =
    (* integral of (f - t)^2 dt on [a,b] with F_n = f constant *)
    let g t = ((f -. t) ** 3.) /. -3. in
    g b -. g a
  in
  let prev = ref 0. in
  for i = 0 to n - 1 do
    integral := !integral +. segment (float_of_int i /. nf) !prev xs.(i);
    prev := xs.(i)
  done;
  integral := !integral +. segment 1. !prev 1.;
  sqrt !integral

let test_star_matches_brute_force_1d () =
  let space1 = Space.create [ Parameter.make "x" ~lo:0. ~hi:1. ] in
  let rng = Rng.create 9 in
  for _ = 1 to 20 do
    let pts = random_points rng space1 ~n:(3 + Rng.int rng 10) in
    let formula = Discrepancy.l2_star pts in
    let brute = brute_force_l2_star_1d pts in
    check_float ~eps:1e-8 "1d star discrepancy" brute formula
  done

let test_discrepancy_permutation_invariant () =
  let rng = Rng.create 10 in
  let pts = random_points rng space2 ~n:20 in
  let rev = Array.of_list (List.rev (Array.to_list pts)) in
  check_float ~eps:1e-12 "star invariant" (Discrepancy.l2_star pts)
    (Discrepancy.l2_star rev);
  check_float ~eps:1e-12 "centered invariant" (centered_l2 pts)
    (centered_l2 rev)

let test_centered_reflection_invariant () =
  let rng = Rng.create 11 in
  let pts = random_points rng space2 ~n:15 in
  let reflected = Array.map (fun p -> [| 1. -. p.(0); p.(1) |]) pts in
  check_float ~eps:1e-9 "reflection invariance"
    (centered_l2 pts)
    (centered_l2 reflected)

let test_lhs_beats_clustered () =
  let rng = Rng.create 12 in
  let lhs = Lhs.sample rng space2 ~n:20 in
  (* all points clustered in a tiny corner *)
  let clustered =
    Array.init 20 (fun _ ->
        [| 0.01 +. (0.01 *. Rng.unit_float rng); 0.01 +. (0.01 *. Rng.unit_float rng) |])
  in
  Alcotest.(check bool) "lhs better" true
    (Discrepancy.l2_star lhs < Discrepancy.l2_star clustered)

let test_discrepancy_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Discrepancy: empty sample")
    (fun () -> ignore (Discrepancy.l2_star [||]))

(* Reference implementations of both closed forms with the pair kernel
   summed over the full n^2 double loop — no i/j symmetry shortcut.  The
   production code must agree to fp-reordering noise. *)
let reference_l2_star points =
  let n = Array.length points in
  let d = Array.length points.(0) in
  let nf = float_of_int n in
  let term1 = 3. ** float_of_int (-d) in
  let sum2 = ref 0. in
  Array.iter
    (fun x ->
      let prod = ref 1. in
      for k = 0 to d - 1 do
        prod := !prod *. (1. -. (x.(k) *. x.(k)))
      done;
      sum2 := !sum2 +. !prod)
    points;
  let term2 = 2. ** float_of_int (1 - d) /. nf *. !sum2 in
  let pair = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let prod = ref 1. in
      for k = 0 to d - 1 do
        prod := !prod *. (1. -. Float.max points.(i).(k) points.(j).(k))
      done;
      pair := !pair +. !prod
    done
  done;
  sqrt (Float.max 0. (term1 -. term2 +. (!pair /. (nf *. nf))))

let reference_centered_l2 points =
  let n = Array.length points in
  let d = Array.length points.(0) in
  let nf = float_of_int n in
  let term1 = (13. /. 12.) ** float_of_int d in
  let z i k = abs_float (points.(i).(k) -. 0.5) in
  let sum2 = ref 0. in
  for i = 0 to n - 1 do
    let prod = ref 1. in
    for k = 0 to d - 1 do
      let zk = z i k in
      prod := !prod *. (1. +. (0.5 *. zk) -. (0.5 *. zk *. zk))
    done;
    sum2 := !sum2 +. !prod
  done;
  let term2 = 2. /. nf *. !sum2 in
  let pair = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let prod = ref 1. in
      for k = 0 to d - 1 do
        let dij = abs_float (points.(i).(k) -. points.(j).(k)) in
        prod := !prod *. (1. +. (0.5 *. z i k) +. (0.5 *. z j k) -. (0.5 *. dij))
      done;
      pair := !pair +. !prod
    done
  done;
  sqrt (Float.max 0. (term1 -. term2 +. (!pair /. (nf *. nf))))

let test_symmetric_matches_reference () =
  let rng = Rng.create 19 in
  for _ = 1 to 10 do
    let n = 5 + Rng.int rng 40 in
    let pts = random_points rng space2 ~n in
    check_float ~eps:1e-12 "star symmetric = reference"
      (reference_l2_star pts) (Discrepancy.l2_star pts);
    check_float ~eps:1e-12 "centered symmetric = reference"
      (reference_centered_l2 pts)
      (centered_l2 pts)
  done

let test_discrepancy_domain_invariant () =
  (* Bit-identical, not merely close: the row partials are folded in row
     order whatever the domain count. *)
  let rng = Rng.create 20 in
  let pts = random_points rng space2 ~n:37 in
  List.iter
    (fun kind ->
      let serial = Discrepancy.compute ~domains:1 kind pts in
      List.iter
        (fun d ->
          let v = Discrepancy.compute ~domains:d kind pts in
          if v <> serial then
            Alcotest.failf "domains=%d differs: %.17g vs %.17g" d v serial)
        [ 2; 3; 4; 7 ])
    [ Discrepancy.Star; Discrepancy.Centered ]

(* The pair loops as they were before the row sums moved to C — the
   diagonal and strict upper triangle, each row summed in ascending j from
   +0, rows folded in order.  Every kernel path must return these bits. *)
let oracle_l2_star points =
  let d = Array.length points.(0) in
  let n = Array.length points in
  let nf = float_of_int n in
  let term1 = 3. ** float_of_int (-d) in
  let sum2 = ref 0. and diag = ref 0. in
  Array.iter
    (fun x ->
      let prod = ref 1. and prod_diag = ref 1. in
      for k = 0 to d - 1 do
        prod := !prod *. (1. -. (x.(k) *. x.(k)));
        prod_diag := !prod_diag *. (1. -. x.(k))
      done;
      sum2 := !sum2 +. !prod;
      diag := !diag +. !prod_diag)
    points;
  let term2 = 2. ** float_of_int (1 - d) /. nf *. !sum2 in
  let row_sums =
    Array.init n (fun i ->
        let xi = points.(i) in
        let acc = ref 0. in
        for j = i + 1 to n - 1 do
          let xj = points.(j) in
          let prod = ref 1. in
          for k = 0 to d - 1 do
            prod := !prod *. (1. -. Float.max xi.(k) xj.(k))
          done;
          acc := !acc +. !prod
        done;
        !acc)
  in
  let off = Array.fold_left ( +. ) 0. row_sums in
  let term3 = (!diag +. (2. *. off)) /. (nf *. nf) in
  sqrt (Float.max 0. (term1 -. term2 +. term3))

let oracle_centered_l2 points =
  let d = Array.length points.(0) in
  let n = Array.length points in
  let nf = float_of_int n in
  let term1 = (13. /. 12.) ** float_of_int d in
  let zs =
    Array.map (fun x -> Array.map (fun v -> abs_float (v -. 0.5)) x) points
  in
  let sum2 = ref 0. and diag = ref 0. in
  Array.iter
    (fun z ->
      let prod = ref 1. and prod_diag = ref 1. in
      for k = 0 to d - 1 do
        let zk = z.(k) in
        prod := !prod *. (1. +. (0.5 *. zk) -. (0.5 *. zk *. zk));
        prod_diag := !prod_diag *. (1. +. zk)
      done;
      sum2 := !sum2 +. !prod;
      diag := !diag +. !prod_diag)
    zs;
  let term2 = 2. /. nf *. !sum2 in
  let row_sums =
    Array.init n (fun i ->
        let xi = points.(i) and zi = zs.(i) in
        let acc = ref 0. in
        for j = i + 1 to n - 1 do
          let xj = points.(j) and zj = zs.(j) in
          let prod = ref 1. in
          for k = 0 to d - 1 do
            let dij = abs_float (xi.(k) -. xj.(k)) in
            prod :=
              !prod
              *. (1. +. (0.5 *. zi.(k)) +. (0.5 *. zj.(k)) -. (0.5 *. dij))
          done;
          acc := !acc +. !prod
        done;
        !acc)
  in
  let off = Array.fold_left ( +. ) 0. row_sums in
  let term3 = (!diag +. (2. *. off)) /. (nf *. nf) in
  sqrt (Float.max 0. (term1 -. term2 +. term3))

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Coordinates that stress the lanes and Float.max: exact zeros of both
   signs (max(-0, +0) may pick either), subnormals, the cube's faces,
   points outside [0, 1], and frequent ties between points. *)
let awkward_coord rng =
  match Rng.int rng 10 with
  | 0 -> 0.
  | 1 -> -0.
  | 2 -> 1.
  | 3 -> 0.5
  | 4 -> 4.9e-324 *. float_of_int (Rng.int rng 1000 - 500)
  | 5 -> Float.min_float *. (Rng.unit_float rng -. 0.5)
  | 6 -> (Rng.unit_float rng -. 0.5) *. 6.
  | _ -> Rng.unit_float rng

(* Sample sizes on both sides of the 8-pair lane block (each row i has
   n - 1 - i pairs, so n >= 9 reaches every tail length), and 0 to 11
   dimensions. *)
let awkward_sample rng =
  let n =
    if Rng.bool rng then
      List.nth [ 1; 2; 7; 8; 9; 10; 16; 17; 18; 25; 33; 64; 65 ] (Rng.int rng 13)
    else 1 + Rng.int rng 70
  in
  let d = Rng.int rng 12 in
  Array.init n (fun _ -> Array.init d (fun _ -> awkward_coord rng))

module Simd = Archpred_simd.Simd

type kernel = ?domains:int -> Space.point array -> float

(* [f pts] at every level the host has. *)
let at_levels (f : kernel) pts =
  List.map (fun level -> Simd.with_cap level (fun () -> f pts)) (Simd.supported ())

let kinds =
  [
    (Discrepancy.Star, (Discrepancy.l2_star : kernel), oracle_l2_star);
    (Discrepancy.Centered, centered_l2, oracle_centered_l2);
  ]

let prop_discrepancy_paths_bit_identical =
  qtest ~count:300 "SIMD = portable = OCaml oracle, bit for bit"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let pts = awkward_sample (Rng.create seed) in
      List.for_all
        (fun (kind, (f : kernel), oracle) ->
          let v = f pts in
          List.for_all (same_bits v) (at_levels f pts)
          && same_bits v (oracle pts)
          && same_bits v (Discrepancy.compute ~domains:1 kind pts)
          && same_bits v (Discrepancy.compute ~domains:4 kind pts))
        kinds)

let prop_discrepancy_nan =
  qtest ~count:200 "a NaN coordinate gives NaN on every path"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let pts = awkward_sample rng in
      let n = Array.length pts and d = Array.length pts.(0) in
      QCheck2.assume (d > 0);
      pts.(Rng.int rng n).(Rng.int rng d) <- Float.nan;
      List.for_all
        (fun (_, (f : kernel), oracle) ->
          List.for_all Float.is_nan (at_levels f pts)
          && Float.is_nan (oracle pts))
        kinds)

(* ---------- Optimize ---------- *)

let test_best_lhs_improves () =
  let rng1 = Rng.create 13 and rng2 = Rng.create 13 in
  let single = Optimize.best_lhs ~candidates:1 rng1 space2 ~n:20 in
  let many = Optimize.best_lhs ~candidates:50 rng2 space2 ~n:20 in
  Alcotest.(check bool) "more candidates not worse" true
    (many.Optimize.discrepancy <= single.Optimize.discrepancy)

let test_best_lhs_domain_invariant () =
  (* Per-candidate split RNG streams: the winning sample and its score are
     bit-identical however many domains score the candidates. *)
  let run domains =
    let rng = Rng.create 17 in
    Optimize.best_lhs ~candidates:16 ~domains rng space2 ~n:20
  in
  let base = run 1 in
  List.iter
    (fun d ->
      let r = run d in
      if r.Optimize.discrepancy <> base.Optimize.discrepancy then
        Alcotest.failf "domains=%d: discrepancy %.17g <> %.17g" d
          r.Optimize.discrepancy base.Optimize.discrepancy;
      if r.Optimize.points <> base.Optimize.points then
        Alcotest.failf "domains=%d: different winning sample" d)
    [ 2; 3; 5 ]

let test_best_lhs_advances_rng_uniformly () =
  (* The caller's rng must end in the same state for every domain count:
     exactly [candidates] splits are drawn from it, nothing else. *)
  let state rng = Rng.int64 rng in
  let rng1 = Rng.create 23 and rng4 = Rng.create 23 in
  ignore (Optimize.best_lhs ~candidates:9 ~domains:1 rng1 space2 ~n:12);
  ignore (Optimize.best_lhs ~candidates:9 ~domains:4 rng4 space2 ~n:12);
  Alcotest.(check int64) "same rng state after" (state rng1) (state rng4)

let test_discrepancy_curve_decreases () =
  let rng = Rng.create 14 in
  let curve =
    Optimize.discrepancy_curve ~candidates:20 rng space2 ~sizes:[ 10; 40; 160 ]
  in
  match curve with
  | [ (_, d1); (_, d2); (_, d3) ] ->
      Alcotest.(check bool) "decreasing" true (d1 > d2 && d2 > d3)
  | _ -> Alcotest.fail "expected 3 sizes"

(* ---------- Random designs and grids ---------- *)

let test_random_in_box () =
  let rng = Rng.create 15 in
  let lo = [| 0.25; 0.4 |] and hi = [| 0.5; 0.6 |] in
  let pts = Design.Random_design.sample_in_box rng space2 ~n:100 ~lo ~hi in
  Array.iter
    (fun p ->
      if p.(0) < 0.25 || p.(0) > 0.5 || p.(1) < 0.4 || p.(1) > 0.6 then
        Alcotest.fail "outside box")
    pts

(* Every coordinate of a snapped random design sits on its parameter's
   level grid for the sample size. *)
let test_snapped_on_level_grid () =
  let space =
    Space.create
      [
        Parameter.make "f" ~lo:0. ~hi:1. ~levels:(Parameter.Fixed 5);
        Parameter.make "s" ~lo:1. ~hi:16. ~transform:Transform.Log;
      ]
  in
  let n = 40 in
  let pts = Design.Random_design.sample_snapped (Rng.create 16) space ~n in
  Alcotest.(check int) "count" n (Array.length pts);
  Array.iter
    (fun p ->
      Alcotest.(check int) "arity" 2 (Array.length p);
      Array.iteri
        (fun j u ->
          let levels =
            Parameter.level_coordinates (Space.parameter space j) ~sample_size:n
          in
          if not (Array.exists (fun l -> Float.equal l u) levels) then
            Alcotest.failf "dim %d: %.17g is not a level coordinate" j u)
        p)
    pts

let test_snapped_reproducible () =
  let draw seed = Design.Random_design.sample_snapped (Rng.create seed) space2 ~n:25 in
  Alcotest.(check bool) "same seed, same design" true (draw 17 = draw 17)

let test_sweep2_shape () =
  let base = [| 0.5; 0.5 |] in
  let grid = Grid.sweep2 space2 ~base ~dim1:0 ~steps1:3 ~dim2:1 ~steps2:4 in
  Alcotest.(check int) "rows" 3 (Array.length grid);
  Alcotest.(check int) "cols" 4 (Array.length grid.(0));
  check_float "row coord" 0.5 grid.(1).(0).(0);
  check_float "col coord" 1. grid.(0).(3).(1)

(* ---------- Sobol ---------- *)

let test_sobol_in_cube () =
  let pts = Design.Sobol.points ~dim:5 ~n:200 () in
  Array.iter
    (fun p ->
      Array.iter
        (fun u -> if u < 0. || u >= 1. then Alcotest.failf "out of cube: %f" u)
        p)
    pts

let test_sobol_deterministic () =
  let a = Design.Sobol.points ~dim:3 ~n:10 () in
  let b = Design.Sobol.points ~dim:3 ~n:10 () in
  Alcotest.(check bool) "same sequence" true (a = b)

let test_sobol_first_point () =
  (* after skipping the origin, the first point is the cube center *)
  let pts = Design.Sobol.points ~dim:4 ~n:1 () in
  Array.iter (fun u -> Alcotest.(check (float 1e-12)) "center" 0.5 u) pts.(0)

let test_sobol_beats_random_discrepancy () =
  let pts = Design.Sobol.points ~dim:2 ~n:64 () in
  let rng = Rng.create 77 in
  let rand =
    Array.init 64 (fun _ -> Array.init 2 (fun _ -> Rng.unit_float rng))
  in
  Alcotest.(check bool) "lower discrepancy" true
    (Discrepancy.l2_star pts < Discrepancy.l2_star rand)

let test_sobol_distinct_points () =
  let pts = Design.Sobol.points ~dim:6 ~n:256 () in
  let seen = Hashtbl.create 256 in
  Array.iter (fun p -> Hashtbl.replace seen (Array.to_list p) ()) pts;
  Alcotest.(check int) "all distinct" 256 (Hashtbl.length seen)

let test_sobol_validation () =
  Alcotest.check_raises "dim too big"
    (Invalid_argument "Sobol.points: dim outside [1, 10]") (fun () ->
      ignore (Design.Sobol.points ~dim:11 ~n:4 ()));
  Alcotest.check_raises "n <= 0"
    (Invalid_argument "Sobol.points: n <= 0") (fun () ->
      ignore (Design.Sobol.points ~dim:2 ~n:0 ()))

let () =
  Alcotest.run "design"
    [
      ( "transform",
        [
          Alcotest.test_case "linear endpoints" `Quick test_linear_endpoints;
          Alcotest.test_case "descending range" `Quick test_linear_descending;
          Alcotest.test_case "log midpoint" `Quick test_log_midpoint;
          Alcotest.test_case "log invalid" `Quick test_log_invalid;
          prop_transform_roundtrip;
        ] );
      ( "parameter",
        [
          Alcotest.test_case "level count" `Quick test_level_count;
          Alcotest.test_case "level coordinates" `Quick test_level_coordinates;
          Alcotest.test_case "snap" `Quick test_snap;
          Alcotest.test_case "integer rounding" `Quick test_integer_rounding;
          Alcotest.test_case "validation" `Quick test_parameter_validation;
        ] );
      ( "space",
        [
          Alcotest.test_case "dimension" `Quick test_space_dimension;
          Alcotest.test_case "decode" `Quick test_space_decode;
          Alcotest.test_case "roundtrip" `Quick test_space_roundtrip;
          Alcotest.test_case "index_of" `Quick test_space_index_of;
          Alcotest.test_case "duplicate names" `Quick test_space_duplicate_names;
          Alcotest.test_case "sub_box" `Quick test_sub_box;
          Alcotest.test_case "validate_point" `Quick test_validate_point;
        ] );
      ( "lhs",
        [
          Alcotest.test_case "points in cube" `Quick test_lhs_in_cube;
          Alcotest.test_case "level coverage" `Quick test_lhs_level_coverage;
          Alcotest.test_case "balanced levels" `Quick test_lhs_balanced_levels;
          Alcotest.test_case "rejects n<2" `Quick test_lhs_rejects_small_n;
        ] );
      ( "discrepancy",
        [
          Alcotest.test_case "1d brute force" `Quick test_star_matches_brute_force_1d;
          Alcotest.test_case "permutation invariant" `Quick test_discrepancy_permutation_invariant;
          Alcotest.test_case "centered reflection invariant" `Quick test_centered_reflection_invariant;
          Alcotest.test_case "lhs beats clustered" `Quick test_lhs_beats_clustered;
          Alcotest.test_case "empty raises" `Quick test_discrepancy_empty;
          Alcotest.test_case "symmetric = reference" `Quick
            test_symmetric_matches_reference;
          Alcotest.test_case "domain-count invariant" `Quick
            test_discrepancy_domain_invariant;
          prop_discrepancy_paths_bit_identical;
          prop_discrepancy_nan;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "best-of-N improves" `Quick test_best_lhs_improves;
          Alcotest.test_case "curve decreases" `Quick test_discrepancy_curve_decreases;
          Alcotest.test_case "domain-count invariant" `Quick
            test_best_lhs_domain_invariant;
          Alcotest.test_case "uniform rng advance" `Quick
            test_best_lhs_advances_rng_uniformly;
        ] );
      ( "grids",
        [
          Alcotest.test_case "random in box" `Quick test_random_in_box;
          Alcotest.test_case "sweep2" `Quick test_sweep2_shape;
        ] );
      ( "snapped_samples",
        [
          Alcotest.test_case "on level grid" `Quick test_snapped_on_level_grid;
          Alcotest.test_case "reproducible" `Quick test_snapped_reproducible;
        ] );
      ( "sobol",
        [
          Alcotest.test_case "in cube" `Quick test_sobol_in_cube;
          Alcotest.test_case "deterministic" `Quick test_sobol_deterministic;
          Alcotest.test_case "first point" `Quick test_sobol_first_point;
          Alcotest.test_case "beats random" `Quick test_sobol_beats_random_discrepancy;
          Alcotest.test_case "distinct points" `Quick test_sobol_distinct_points;
          Alcotest.test_case "validation" `Quick test_sobol_validation;
        ] );
    ]
