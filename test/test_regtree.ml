(* Tests for archpred.regtree: split search, stopping rule, hyper-rectangle
   bookkeeping, prediction and the partition invariants. *)

module Tree = Archpred_regtree.Tree
module Rng = Archpred_stats.Rng

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* 1-D step function: y = 1 for x <= 0.5, y = 5 beyond. *)
let step_data () =
  let points = Array.init 20 (fun i -> [| (float_of_int i +. 0.5) /. 20. |]) in
  let responses = Array.map (fun p -> if p.(0) <= 0.5 then 1. else 5.) points in
  (points, responses)

let test_step_function_split () =
  let points, responses = step_data () in
  let t = Tree.build ~p_min:5 ~dim:1 ~points ~responses () in
  match Tree.splits t with
  | first :: _ ->
      Alcotest.(check int) "splits on dim 0" 0 first.Tree.dim;
      Alcotest.(check bool) "threshold near 0.5" true
        (abs_float (first.Tree.threshold -. 0.5) < 0.05)
  | [] -> Alcotest.fail "expected at least one split"

let test_step_prediction () =
  let points, responses = step_data () in
  let t = Tree.build ~p_min:5 ~dim:1 ~points ~responses () in
  Alcotest.(check (float 1e-9)) "left mean" 1. (Tree.predict t [| 0.2 |]);
  Alcotest.(check (float 1e-9)) "right mean" 5. (Tree.predict t [| 0.9 |])

let test_first_split_on_dominant_dim () =
  (* response depends strongly on dim 1, weakly on dim 0 *)
  let rng = Rng.create 4 in
  let points =
    Array.init 60 (fun _ -> [| Rng.unit_float rng; Rng.unit_float rng |])
  in
  let responses =
    Array.map (fun p -> (10. *. p.(1)) +. (0.1 *. p.(0))) points
  in
  let t = Tree.build ~p_min:5 ~dim:2 ~points ~responses () in
  match Tree.splits t with
  | first :: _ -> Alcotest.(check int) "dominant dim first" 1 first.Tree.dim
  | [] -> Alcotest.fail "no splits"

let test_p_min_respected () =
  let points, responses = step_data () in
  let t = Tree.build ~p_min:4 ~dim:1 ~points ~responses () in
  List.iter
    (fun (leaf : Tree.node) ->
      if Array.length leaf.Tree.indices > 4 then
        Alcotest.failf "leaf with %d > p_min points"
          (Array.length leaf.Tree.indices))
    (Tree.leaves t)

let test_root_region_is_unit_cube () =
  let points, responses = step_data () in
  let t = Tree.build ~dim:1 ~points ~responses () in
  let r = Tree.root t in
  Alcotest.(check (float 0.)) "lo" 0. r.Tree.lo.(0);
  Alcotest.(check (float 0.)) "hi" 1. r.Tree.hi.(0);
  Alcotest.(check int) "root id" 0 r.Tree.id;
  Alcotest.(check int) "root depth" 1 r.Tree.depth

let test_center_size () =
  let points, responses = step_data () in
  let t = Tree.build ~p_min:5 ~dim:1 ~points ~responses () in
  match (Tree.root t).Tree.split with
  | Some s ->
      let c = Tree.center s.Tree.left and sz = Tree.size s.Tree.left in
      Alcotest.(check (float 1e-9)) "left center"
        (s.Tree.threshold /. 2.) c.(0);
      Alcotest.(check (float 1e-9)) "left size" s.Tree.threshold sz.(0)
  | None -> Alcotest.fail "root not split"

let test_split_order_monotone () =
  let rng = Rng.create 9 in
  let points =
    Array.init 80 (fun _ -> [| Rng.unit_float rng; Rng.unit_float rng |])
  in
  let responses = Array.map (fun p -> exp (2. *. p.(0)) +. p.(1)) points in
  let t = Tree.build ~p_min:2 ~dim:2 ~points ~responses () in
  let orders = List.map (fun s -> s.Tree.order) (Tree.splits t) in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "orders ascend" true (ascending orders)

let test_constant_response () =
  let points = Array.init 10 (fun i -> [| float_of_int i /. 10. |]) in
  let responses = Array.make 10 3. in
  let t = Tree.build ~p_min:1 ~dim:1 ~points ~responses () in
  Alcotest.(check (float 1e-9)) "predicts constant" 3. (Tree.predict t [| 0.5 |]);
  Alcotest.(check bool) "partition ok" true (Tree.region_disjoint_cover t)

let test_duplicate_points () =
  (* identical coordinates cannot be split: builder must terminate *)
  let points = Array.make 8 [| 0.5; 0.5 |] in
  let responses = Array.init 8 float_of_int in
  let t = Tree.build ~p_min:1 ~dim:2 ~points ~responses () in
  Alcotest.(check int) "single node" 1 (Tree.node_count t)

let test_invalid_inputs () =
  Alcotest.check_raises "empty" (Invalid_argument "Tree.build: empty sample")
    (fun () -> ignore (Tree.build ~dim:1 ~points:[||] ~responses:[||] ()));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Tree.build: points/responses length mismatch")
    (fun () ->
      ignore (Tree.build ~dim:1 ~points:[| [| 0.5 |] |] ~responses:[||] ()))

let prop_partition_invariant =
  qtest "children partition parents" QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 10 + Rng.int rng 60 in
      let d = 1 + Rng.int rng 4 in
      let points =
        Array.init n (fun _ -> Array.init d (fun _ -> Rng.unit_float rng))
      in
      let responses = Array.init n (fun _ -> Rng.unit_float rng) in
      let t = Tree.build ~p_min:(1 + Rng.int rng 3) ~dim:d ~points ~responses () in
      Tree.region_disjoint_cover t)

let prop_predict_is_leaf_mean =
  qtest "prediction at training point = its leaf mean"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 10 + Rng.int rng 40 in
      let points =
        Array.init n (fun _ -> [| Rng.unit_float rng; Rng.unit_float rng |])
      in
      let responses = Array.init n (fun _ -> Rng.unit_float rng) in
      let t = Tree.build ~p_min:1 ~dim:2 ~points ~responses () in
      (* with p_min=1 and distinct coordinates, most leaves are singletons:
         the prediction at a training point must be that point's response
         whenever its leaf is a singleton *)
      let ok = ref true in
      List.iter
        (fun (leaf : Tree.node) ->
          if Array.length leaf.Tree.indices = 1 then begin
            let i = leaf.Tree.indices.(0) in
            if abs_float (Tree.predict t points.(i) -. responses.(i)) > 1e-9
            then ok := false
          end)
        (Tree.leaves t);
      !ok)

let prop_nodes_count_consistent =
  qtest "node_count = |nodes| = 2*splits + 1"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 5 + Rng.int rng 50 in
      let points = Array.init n (fun _ -> [| Rng.unit_float rng |]) in
      let responses = Array.init n (fun _ -> Rng.unit_float rng) in
      let t = Tree.build ~p_min:1 ~dim:1 ~points ~responses () in
      let nodes = List.length (Tree.nodes t) in
      nodes = Tree.node_count t
      && nodes = (2 * List.length (Tree.splits t)) + 1)

(* A node splits if and only if it holds more than [p_min] points, and
   its split depends on its own indices alone, so every node of a
   [p_min] = 2 or 3 tree is a node of the [p_min] = 1 tree: same
   rectangle bit for bit, same indices in the same order.  Only ids
   differ, since best-first creation order does.  Sharing design and
   Gram columns across the tuning grid's [p_min] row rests on this.
   Coarse coordinates give tied values and duplicate points. *)
let prop_p_min_trees_nest =
  qtest ~count:100 "p_min 2 and 3 trees nest in the p_min 1 tree"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 120 in
      let d = 1 + Rng.int rng 9 in
      let coord () =
        if Rng.int rng 3 = 0 then float_of_int (Rng.int rng 5) /. 4.
        else Rng.unit_float rng
      in
      let points = Array.init n (fun _ -> Array.init d (fun _ -> coord ())) in
      let responses = Array.init n (fun _ -> Rng.unit_float rng) in
      let build p_min = Tree.build ~p_min ~dim:d ~points ~responses () in
      let fine = Hashtbl.create 64 in
      List.iter
        (fun (node : Tree.node) -> Hashtbl.replace fine node.Tree.indices node)
        (Tree.nodes (build 1));
      let same_bits a b =
        Array.length a = Array.length b
        && Array.for_all2
             (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
             a b
      in
      List.for_all
        (fun p_min ->
          List.for_all
            (fun (node : Tree.node) ->
              match Hashtbl.find_opt fine node.Tree.indices with
              | Some f -> same_bits f.Tree.lo node.Tree.lo && same_bits f.Tree.hi node.Tree.hi
              | None -> false)
            (Tree.nodes (build p_min)))
        [ 2; 3 ])

let () =
  Alcotest.run "regtree"
    [
      ( "splitting",
        [
          Alcotest.test_case "step function" `Quick test_step_function_split;
          Alcotest.test_case "step prediction" `Quick test_step_prediction;
          Alcotest.test_case "dominant dim first" `Quick test_first_split_on_dominant_dim;
          Alcotest.test_case "p_min respected" `Quick test_p_min_respected;
          Alcotest.test_case "split order monotone" `Quick test_split_order_monotone;
        ] );
      ( "structure",
        [
          Alcotest.test_case "root region" `Quick test_root_region_is_unit_cube;
          Alcotest.test_case "center/size" `Quick test_center_size;
          Alcotest.test_case "constant response" `Quick test_constant_response;
          Alcotest.test_case "duplicate points" `Quick test_duplicate_points;
          Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
        ] );
      ( "properties",
        [
          prop_partition_invariant;
          prop_predict_is_leaf_mean;
          prop_nodes_count_consistent;
          prop_p_min_trees_nest;
        ] );
    ]
