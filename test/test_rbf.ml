(* Tests for archpred.rbf: Gaussian bases, network evaluation and fitting,
   selection criteria, tree-derived candidate centers, the fast subset
   scorer (cross-checked against exact QR fits) and Orr's tree-ordered
   center selection. *)

module Rbf = Archpred_rbf
module Network = Rbf.Network
module Criteria = Rbf.Criteria
module Tree_centers = Rbf.Tree_centers
module Selection = Rbf.Selection
module Subset_scorer = Rbf.Subset_scorer
module Tree = Archpred_regtree.Tree
module Matrix = Archpred_linalg.Matrix
module Least_squares = Archpred_linalg.Least_squares
module Ils = Archpred_linalg.Incremental_ls
module Rng = Archpred_stats.Rng
module Simd = Archpred_simd.Simd

let check_float ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------- basis ---------- *)

let unit_center = { Network.c = [| 0.5; 0.5 |]; r = [| 0.2; 0.4 |] }

let test_basis_peak () =
  check_float "peak at center" 1. (Network.basis unit_center [| 0.5; 0.5 |])

let test_basis_value () =
  (* h = exp(-((0.1/0.2)^2 + (0.2/0.4)^2)) = exp(-0.5) *)
  check_float ~eps:1e-12 "known value" (exp (-0.5))
    (Network.basis unit_center [| 0.6; 0.7 |])

let test_basis_symmetric () =
  check_float ~eps:1e-12 "symmetry"
    (Network.basis unit_center [| 0.6; 0.5 |])
    (Network.basis unit_center [| 0.4; 0.5 |])

let test_basis_decay () =
  let near = Network.basis unit_center [| 0.55; 0.5 |] in
  let far = Network.basis unit_center [| 0.9; 0.5 |] in
  Alcotest.(check bool) "monotone decay" true (near > far)

let test_check_center () =
  Alcotest.check_raises "zero radius"
    (Invalid_argument "Network: non-positive radius") (fun () ->
      Network.check_center { Network.c = [| 0. |]; r = [| 0. |] })

(* ---------- network eval / fit ---------- *)

let test_eval_weighted_sum () =
  let c1 = { Network.c = [| 0. |]; r = [| 1. |] } in
  let c2 = { Network.c = [| 1. |]; r = [| 1. |] } in
  let net = { Network.centers = [| c1; c2 |]; weights = [| 2.; 3. |] } in
  let x = [| 0.5 |] in
  check_float ~eps:1e-12 "weighted sum"
    ((2. *. Network.basis c1 x) +. (3. *. Network.basis c2 x))
    (Network.eval net x)

let test_design_matrix () =
  let centers = [| unit_center |] in
  let points = [| [| 0.5; 0.5 |]; [| 0.6; 0.7 |] |] in
  let h = Network.design_matrix centers points in
  check_float "h00" 1. (Matrix.get h 0 0);
  check_float ~eps:1e-12 "h10" (exp (-0.5)) (Matrix.get h 1 0)

let test_fit_interpolates () =
  (* as many narrow centers as points: the fit interpolates exactly *)
  let points = [| [| 0.1 |]; [| 0.5 |]; [| 0.9 |] |] in
  let responses = [| 1.; 4.; 2. |] in
  let centers =
    Array.map (fun p -> { Network.c = Array.copy p; r = [| 0.05 |] }) points
  in
  let net, diag = Network.fit ~centers ~points ~responses () in
  Alcotest.(check bool) "tiny rss" true (diag.Network.rss < 1e-6);
  Array.iteri
    (fun i p ->
      check_float ~eps:1e-3 "interpolation" responses.(i) (Network.eval net p))
    points

let test_fit_rejects_more_centers_than_points () =
  let points = [| [| 0.5 |] |] in
  let centers =
    [|
      { Network.c = [| 0.3 |]; r = [| 0.1 |] };
      { Network.c = [| 0.7 |]; r = [| 0.1 |] };
    |]
  in
  Alcotest.check_raises "overdetermined"
    (Invalid_argument "Network.fit: more centers than points") (fun () ->
      ignore (Network.fit ~centers ~points ~responses:[| 1. |] ()))

let test_fit_coincident_centers_regularized () =
  let points = [| [| 0.1 |]; [| 0.5 |]; [| 0.9 |] |] in
  let c = { Network.c = [| 0.5 |]; r = [| 0.3 |] } in
  let _, diag =
    Network.fit ~ridge:0. ~centers:[| c; c |] ~points
      ~responses:[| 1.; 2.; 3. |] ()
  in
  Alcotest.(check bool) "regularized" true diag.Network.regularized

(* ---------- criteria ---------- *)

let test_aicc_formula () =
  (* p=100, m=10, sigma2=0.25 *)
  let expected =
    (100. *. log 0.25) +. 20. +. (2. *. 10. *. 11. /. (100. -. 10. -. 1.))
  in
  check_float ~eps:1e-9 "aicc" expected
    (Criteria.score Criteria.Aicc ~p:100 ~m:10 ~sigma2:0.25)

let test_aicc_degenerate () =
  Alcotest.(check bool) "m >= p-1 infinite" true
    (Criteria.score Criteria.Aicc ~p:10 ~m:9 ~sigma2:0.5 = infinity);
  Alcotest.(check bool) "sigma2=0 infinite" true
    (Criteria.score Criteria.Aicc ~p:100 ~m:5 ~sigma2:0. = infinity)

let test_bic_penalizes_more () =
  (* for p >= 8, log p > 2 so BIC penalises extra terms harder than AIC *)
  let a m = Criteria.score Criteria.Aic ~p:100 ~m ~sigma2:0.5 in
  let b m = Criteria.score Criteria.Bic ~p:100 ~m ~sigma2:0.5 in
  Alcotest.(check bool) "bic stiffer" true (b 20 -. b 10 > a 20 -. a 10)

let test_criteria_string_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "roundtrip" true
        (Criteria.of_string (Criteria.to_string c) = Some c))
    [ Criteria.Aicc; Criteria.Aic; Criteria.Bic; Criteria.Gcv ]

(* ---------- tree centers ---------- *)

(* Coefficient of determination [1 - SS_res / SS_tot] of a fit. *)
let r_squared ~actual ~predicted =
  let mean = Array.fold_left ( +. ) 0. actual /. float_of_int (Array.length actual) in
  let ss_res = ref 0. and ss_tot = ref 0. in
  Array.iteri
    (fun i y ->
      ss_res := !ss_res +. ((y -. predicted.(i)) ** 2.);
      ss_tot := !ss_tot +. ((y -. mean) ** 2.))
    actual;
  1. -. (!ss_res /. !ss_tot)

let small_tree () =
  let rng = Rng.create 3 in
  let points =
    Array.init 40 (fun _ -> [| Rng.unit_float rng; Rng.unit_float rng |])
  in
  let responses = Array.map (fun p -> exp p.(0) +. p.(1)) points in
  (Tree.build ~p_min:3 ~dim:2 ~points ~responses (), points, responses)

let test_tree_centers_radii () =
  let tree, _, _ = small_tree () in
  let candidates = Tree_centers.of_tree ~alpha:5. tree in
  Alcotest.(check int) "one per node" (Tree.node_count tree)
    (Array.length candidates);
  (* root candidate: center 0.5^2, radius 5 * 1 *)
  let root = candidates.(0) in
  check_float "root center" 0.5 root.Tree_centers.center.Network.c.(0);
  check_float "root radius" 5. root.Tree_centers.center.Network.r.(0)

let test_tree_centers_alpha_checked () =
  let tree, _, _ = small_tree () in
  Alcotest.check_raises "alpha <= 0"
    (Invalid_argument "Tree_centers.of_tree: alpha <= 0") (fun () ->
      ignore (Tree_centers.of_tree ~alpha:0. tree))

(* ---------- subset scorer vs exact fits ---------- *)

let prop_scorer_matches_qr =
  qtest ~count:30 "gram scorer sigma2 = QR sigma2"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = 15 + Rng.int rng 20 in
      let points =
        Array.init p (fun _ -> [| Rng.unit_float rng; Rng.unit_float rng |])
      in
      let responses = Array.init p (fun _ -> Rng.unit_float rng) in
      let centers =
        Array.init 6 (fun _ ->
            {
              Network.c = [| Rng.unit_float rng; Rng.unit_float rng |];
              r = [| 0.3 +. Rng.unit_float rng; 0.3 +. Rng.unit_float rng |];
            })
      in
      let design = Network.design_matrix centers points in
      let scorer = Subset_scorer.create ~centers ~points ~responses in
      let subset = [ 0; 2; 4 ] in
      match Subset_scorer.sigma2 scorer subset with
      | None -> false
      | Some s2 ->
          let h = Matrix.select_cols design (Array.of_list subset) in
          let f = Least_squares.fit h responses in
          abs_float (s2 -. f.Least_squares.sigma2) < 1e-6)

let test_scorer_empty_subset () =
  let tree, points, responses = small_tree () in
  let candidates = Tree_centers.of_tree ~alpha:5. tree in
  let centers = Array.map (fun c -> c.Tree_centers.center) candidates in
  let scorer = Subset_scorer.create ~centers ~points ~responses in
  Alcotest.(check bool) "empty is None" true
    (Subset_scorer.sigma2 scorer [] = None);
  Alcotest.(check bool) "empty scores infinity" true
    (Subset_scorer.score scorer ~criterion:Criteria.Aicc [] = infinity)

(* ---------- selection ---------- *)

let test_selection_produces_model () =
  let tree, points, responses = small_tree () in
  let candidates = Tree_centers.of_tree ~alpha:5. tree in
  let result = Selection.select ~tree ~candidates ~points ~responses () in
  Alcotest.(check bool) "nonempty" true
    (result.Selection.selected_node_ids <> []);
  Alcotest.(check bool) "criterion finite" true
    (Float.is_finite result.Selection.criterion);
  Alcotest.(check bool) "fewer centers than points" true
    (List.length result.Selection.selected_node_ids < Array.length points)

let test_selection_fits_training_data () =
  let tree, points, responses = small_tree () in
  let candidates = Tree_centers.of_tree ~alpha:5. tree in
  let result = Selection.select ~tree ~candidates ~points ~responses () in
  let predicted =
    Array.map (Network.eval result.Selection.network) points
  in
  let r2 = r_squared ~actual:responses ~predicted in
  Alcotest.(check bool) "training R2 > 0.9" true (r2 > 0.9)

let test_selection_ids_are_tree_nodes () =
  let tree, points, responses = small_tree () in
  let candidates = Tree_centers.of_tree ~alpha:5. tree in
  let result = Selection.select ~tree ~candidates ~points ~responses () in
  List.iter
    (fun id ->
      if id < 0 || id >= Tree.node_count tree then
        Alcotest.failf "bad node id %d" id)
    result.Selection.selected_node_ids

let test_selection_beats_root_only () =
  let tree, points, responses = small_tree () in
  let candidates = Tree_centers.of_tree ~alpha:5. tree in
  let result = Selection.select ~tree ~candidates ~points ~responses () in
  let centers = Array.map (fun c -> c.Tree_centers.center) candidates in
  let design = Network.design_matrix centers points in
  let root_score =
    Selection.evaluate_subset ~criterion:Criteria.Aicc ~design ~responses [ 0 ]
  in
  Alcotest.(check bool) "selection <= root-only" true
    (result.Selection.criterion <= root_score +. 1e-9)


let test_forward_selection () =
  let tree, points, responses = small_tree () in
  let candidates = Tree_centers.of_tree ~alpha:5. tree in
  let result = Selection.select_forward ~candidates ~points ~responses () in
  Alcotest.(check bool) "nonempty" true
    (result.Selection.selected_node_ids <> []);
  Alcotest.(check bool) "criterion finite" true
    (Float.is_finite result.Selection.criterion);
  let predicted = Array.map (Network.eval result.Selection.network) points in
  let r2 = r_squared ~actual:responses ~predicted in
  Alcotest.(check bool) "fits training data" true (r2 > 0.9)

(* ---------- batched evaluation: bit-identity with the scalar oracle ---------- *)

let random_network rng ~dim ~m =
  let centers =
    Array.init m (fun _ ->
        {
          Network.c = Array.init dim (fun _ -> Rng.unit_float rng);
          r = Array.init dim (fun _ -> 0.05 +. Rng.unit_float rng);
        })
  in
  let weights = Array.init m (fun _ -> (Rng.unit_float rng *. 4.) -. 2.) in
  { Network.centers; weights }

(* Every size from 1 to 17, both sides of the 24- and 32-point block
   boundaries, and larger batches with full blocks and a tail. *)
let batch_sizes =
  List.init 17 (fun i -> i + 1) @ [ 23; 24; 25; 31; 32; 33; 64; 255 ]

(* Bit-level equality: the batch kernel must replay the scalar path's
   exact IEEE operation sequence, so even the sign of zero and NaN
   payloads have to agree. *)
let check_bits msg expected actual =
  if
    not
      (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual))
  then Alcotest.failf "%s: scalar %h <> batch %h" msg expected actual

let prop_batch_matches_scalar =
  qtest ~count:25 "eval_batch bit-identical to eval (all batch sizes)"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dim = 1 + Rng.int rng 11 in
      let m = 1 + Rng.int rng 30 in
      let net = random_network rng ~dim ~m in
      let packed = Network.pack net in
      List.iter
        (fun n ->
          let points =
            Array.init n (fun _ ->
                Array.init dim (fun _ -> (Rng.unit_float rng *. 1.4) -. 0.2))
          in
          let expected = Array.map (Network.eval net) points in
          List.iter
            (fun level ->
              let batch =
                Simd.with_cap level (fun () -> Network.eval_batch packed points)
              in
              Array.iteri
                (fun i s ->
                  check_bits
                    (Printf.sprintf "n=%d %s i=%d" n (Simd.to_string level) i)
                    s batch.(i))
                expected)
            (Simd.supported ()))
        batch_sizes;
      true)

(* The design entry: every entry equals [Network.basis] bit for bit, at
   every level the host has, and [design_rows] gives the same rows a
   block at a time.  Above [Scalar] dimensions 1-12 take the C
   kernel and 65 the OCaml fallback; point counts 1-17 and 400 cover
   every remainder of the 8-point blocks and more than one 64-point
   call; some points lie far outside the cube, where the exponent
   underflows. *)
let prop_design_matches_basis =
  qtest ~count:4 "design_matrix bit-identical to basis (all n mod 8)"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      List.iter
        (fun dim ->
          let m = 1 + Rng.int rng 20 in
          let centers = (random_network rng ~dim ~m).Network.centers in
          List.iter
            (fun n ->
              let points =
                Array.init n (fun _ ->
                    let scale = if Rng.int rng 10 = 0 then 50. else 1.4 in
                    Array.init dim (fun _ ->
                        (Rng.unit_float rng -. 0.15) *. scale))
              in
              List.iter
                (fun level ->
                  let h, rows =
                    Simd.with_cap level (fun () ->
                        ( Network.design_matrix centers points,
                          Network.design_rows centers points ))
                  in
                  Array.iteri
                    (fun i x ->
                      Array.iteri
                        (fun j ctr ->
                          check_bits
                            (Printf.sprintf "%s dim=%d n=%d (%d,%d)"
                               (Simd.to_string level) dim n i j)
                            (Network.basis ctr x) (Matrix.get h i j))
                        centers)
                    points;
                  (* The row producer, one block of rows at a time. *)
                  let k0 = ref 0 in
                  while !k0 < n do
                    let k1 = Int.min n (!k0 + Ils.k_block) in
                    let block = rows !k0 k1 in
                    for i = !k0 to k1 - 1 do
                      for j = 0 to m - 1 do
                        check_bits
                          (Printf.sprintf "%s dim=%d n=%d rows (%d,%d)"
                             (Simd.to_string level) dim n i j)
                          (Matrix.get h i j)
                          block.(((i - !k0) * m) + j)
                      done
                    done;
                    k0 := k1
                  done)
                (Simd.supported ()))
            (List.init 17 (fun i -> i + 1) @ [ 400 ]))
        (List.init 12 (fun i -> i + 1) @ [ 65 ]);
      true)

let test_design_arity_checked () =
  Alcotest.check_raises "point arity"
    (Invalid_argument "Network.design_matrix: arity mismatch") (fun () ->
      ignore (Network.design_matrix [| unit_center |] [| [| 0.5 |] |]))

let test_batch_extreme_inputs () =
  (* far-off-grid queries drive the exponent into the underflow guard *)
  let rng = Rng.create 99 in
  let net = random_network rng ~dim:4 ~m:8 in
  let packed = Network.pack net in
  let points =
    [|
      [| 1e3; -1e3; 5e2; 0. |];
      [| 0.; 0.; 0.; 0. |];
      [| 1.; 1.; 1.; 1. |];
      [| -50.; 60.; -70.; 80. |];
    |]
  in
  let batch = Network.eval_batch packed points in
  Array.iteri
    (fun i p -> check_bits "extreme" (Network.eval net p) batch.(i))
    points

let test_pack_rejects_empty () =
  Alcotest.check_raises "empty network"
    (Invalid_argument "Network.pack: no centers") (fun () ->
      ignore (Network.pack { Network.centers = [||]; weights = [||] }))

let test_batch_kernel_validates () =
  let rng = Rng.create 7 in
  let net = random_network rng ~dim:3 ~m:4 in
  let packed = Network.pack net in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Batch_kernel.load_queries: point arity mismatch") (fun () ->
      ignore (Network.eval_batch packed [| [| 0.5; 0.5 |] |]))

(* The cap lowers the level, never raises it past the host, and is
   restored on the way out, also when the body raises. *)
let test_simd_level_reported () =
  let name = Simd.to_string in
  let check msg expected actual =
    Alcotest.(check string) msg (name expected) (name actual)
  in
  let top = Simd.level () in
  check "uncapped level is the host's" (List.hd (List.rev (Simd.supported ()))) top;
  List.iter
    (fun l ->
      Simd.with_cap l (fun () ->
          check "capped" l (Simd.level ());
          check "training at most avx2"
            (match l with Simd.Avx512 -> Simd.Avx2 | l -> l)
            (Simd.training ())))
    (Simd.supported ());
  Simd.with_cap Simd.Avx512 (fun () -> check "cap above host" top (Simd.level ()));
  (try Simd.with_cap Simd.Scalar (fun () -> failwith "body") with
  | Failure _ -> ());
  check "restored" top (Simd.level ())

let test_forward_respects_cap () =
  let tree, points, responses = small_tree () in
  let candidates = Tree_centers.of_tree ~alpha:5. tree in
  let result =
    Selection.select_forward ~max_centers:3 ~candidates ~points ~responses ()
  in
  Alcotest.(check bool) "at most 3" true
    (List.length result.Selection.selected_node_ids <= 3)

let () =
  Alcotest.run "rbf"
    [
      ( "basis",
        [
          Alcotest.test_case "peak" `Quick test_basis_peak;
          Alcotest.test_case "known value" `Quick test_basis_value;
          Alcotest.test_case "symmetric" `Quick test_basis_symmetric;
          Alcotest.test_case "decay" `Quick test_basis_decay;
          Alcotest.test_case "check_center" `Quick test_check_center;
        ] );
      ( "network",
        [
          Alcotest.test_case "weighted sum" `Quick test_eval_weighted_sum;
          Alcotest.test_case "design matrix" `Quick test_design_matrix;
          Alcotest.test_case "interpolates" `Quick test_fit_interpolates;
          Alcotest.test_case "rejects m > p" `Quick test_fit_rejects_more_centers_than_points;
          Alcotest.test_case "coincident centers" `Quick test_fit_coincident_centers_regularized;
        ] );
      ( "criteria",
        [
          Alcotest.test_case "aicc formula" `Quick test_aicc_formula;
          Alcotest.test_case "aicc degenerate" `Quick test_aicc_degenerate;
          Alcotest.test_case "bic stiffer" `Quick test_bic_penalizes_more;
          Alcotest.test_case "string roundtrip" `Quick test_criteria_string_roundtrip;
        ] );
      ( "tree_centers",
        [
          Alcotest.test_case "radii" `Quick test_tree_centers_radii;
          Alcotest.test_case "alpha checked" `Quick test_tree_centers_alpha_checked;
        ] );
      ( "subset_scorer",
        [
          prop_scorer_matches_qr;
          Alcotest.test_case "empty subset" `Quick test_scorer_empty_subset;
        ] );
      ( "selection",
        [
          Alcotest.test_case "produces model" `Quick test_selection_produces_model;
          Alcotest.test_case "fits training data" `Quick test_selection_fits_training_data;
          Alcotest.test_case "ids are tree nodes" `Quick test_selection_ids_are_tree_nodes;
          Alcotest.test_case "beats root-only" `Quick test_selection_beats_root_only;
          Alcotest.test_case "forward selection" `Quick test_forward_selection;
          Alcotest.test_case "forward cap" `Quick test_forward_respects_cap;
        ] );
      ( "batch",
        [
          prop_batch_matches_scalar;
          prop_design_matches_basis;
          Alcotest.test_case "design arity" `Quick test_design_arity_checked;
          Alcotest.test_case "extreme inputs" `Quick test_batch_extreme_inputs;
          Alcotest.test_case "pack rejects empty" `Quick test_pack_rejects_empty;
          Alcotest.test_case "kernel validates" `Quick test_batch_kernel_validates;
          Alcotest.test_case "simd level" `Quick test_simd_level_reported;
        ] );
    ]
