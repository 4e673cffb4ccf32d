type node = {
  id : int;
  depth : int;
  lo : float array;
  hi : float array;
  indices : int array;
  mean : float;
  sse : float;
  mutable split : split option;
}

and split = {
  dim : int;
  threshold : float;
  order : int;
  sse_reduction : float;
  left : node;
  right : node;
}

type t = { root : node; p_min : int; mutable node_count : int }

let stats_of responses indices =
  let p = Array.length indices in
  let sum = ref 0. in
  Array.iter (fun i -> sum := !sum +. responses.(i)) indices;
  let mean = !sum /. float_of_int p in
  let sse = ref 0. in
  Array.iter
    (fun i ->
      let d = responses.(i) -. mean in
      sse := !sse +. (d *. d))
    indices;
  (mean, !sse)

(* Best split of a set of points: scan every dimension, sorting the node's
   points along it; candidate boundaries are midpoints between consecutive
   distinct coordinates.  Prefix sums give each bifurcation's SSE in O(1),
   so the whole search is O(dim * p log p). *)
let best_split ~dim ~points ~responses indices =
  let p = Array.length indices in
  let best = ref None in
  let order = Array.copy indices in
  for k = 0 to dim - 1 do
    Array.sort (fun a b -> Float.compare points.(a).(k) points.(b).(k)) order;
    (* prefix sums of y and y^2 in sorted order *)
    let psum = Array.make (p + 1) 0. in
    let psq = Array.make (p + 1) 0. in
    for j = 0 to p - 1 do
      let y = responses.(order.(j)) in
      psum.(j + 1) <- psum.(j) +. y;
      psq.(j + 1) <- psq.(j) +. (y *. y)
    done;
    for j = 0 to p - 2 do
      let xl = points.(order.(j)).(k) and xr = points.(order.(j + 1)).(k) in
      if xr > xl then begin
        let nl = float_of_int (j + 1) and nr = float_of_int (p - j - 1) in
        let sl = psum.(j + 1) and sr = psum.(p) -. psum.(j + 1) in
        let ql = psq.(j + 1) and qr = psq.(p) -. psq.(j + 1) in
        let sse_l = ql -. (sl *. sl /. nl) in
        let sse_r = qr -. (sr *. sr /. nr) in
        let e = sse_l +. sse_r in
        let better =
          match !best with None -> true | Some (e', _, _) -> e < e'
        in
        if better then best := Some (e, k, 0.5 *. (xl +. xr))
      end
    done
  done;
  !best

let build ?(obs = Archpred_obs.null) ?(p_min = 1) ~dim ~points ~responses () =
  if p_min < 1 then invalid_arg "Tree.build: p_min < 1";
  let n = Array.length points in
  if n = 0 then invalid_arg "Tree.build: empty sample";
  if Array.length responses <> n then
    invalid_arg "Tree.build: points/responses length mismatch";
  Array.iter
    (fun x ->
      if Array.length x <> dim then invalid_arg "Tree.build: arity mismatch")
    points;
  Archpred_obs.with_span obs "tree.build" @@ fun () ->
  let next_id = ref 0 in
  let make_node ~depth ~lo ~hi indices =
    let mean, sse = stats_of responses indices in
    let node =
      { id = !next_id; depth; lo; hi; indices; mean; sse; split = None }
    in
    incr next_id;
    node
  in
  let root =
    make_node ~depth:1 ~lo:(Array.make dim 0.) ~hi:(Array.make dim 1.)
      (Array.init n (fun i -> i))
  in
  (* Best-first expansion: always split the open leaf with the largest
     within-node SSE, so split order ranks significance. *)
  let open_leaves = ref [ root ] in
  let order = ref 0 in
  let splittable node = Array.length node.indices > p_min in
  let rec expand () =
    let candidates = List.filter splittable !open_leaves in
    match candidates with
    | [] -> ()
    | first :: rest ->
        let node =
          List.fold_left (fun a b -> if b.sse > a.sse then b else a) first rest
        in
        open_leaves := List.filter (fun l -> l != node) !open_leaves;
        (match best_split ~dim ~points ~responses node.indices with
        | None -> () (* all coordinates tied; the node stays a leaf *)
        | Some (_, k, b) ->
            let left_idx, right_idx =
              Array.to_list node.indices
              |> List.partition (fun i -> points.(i).(k) <= b)
            in
            let lo_l = Array.copy node.lo and hi_l = Array.copy node.hi in
            hi_l.(k) <- b;
            let lo_r = Array.copy node.lo and hi_r = Array.copy node.hi in
            lo_r.(k) <- b;
            let left =
              make_node ~depth:(node.depth + 1) ~lo:lo_l ~hi:hi_l
                (Array.of_list left_idx)
            in
            let right =
              make_node ~depth:(node.depth + 1) ~lo:lo_r ~hi:hi_r
                (Array.of_list right_idx)
            in
            incr order;
            node.split <-
              Some
                {
                  dim = k;
                  threshold = b;
                  order = !order;
                  sse_reduction = node.sse -. left.sse -. right.sse;
                  left;
                  right;
                };
            open_leaves := left :: right :: !open_leaves);
        expand ()
  in
  expand ();
  Archpred_obs.count obs "tree.nodes" !next_id;
  { root; p_min; node_count = !next_id }

let root t = t.root
let node_count t = t.node_count

let nodes t =
  let acc = ref [] in
  let rec walk n =
    acc := n :: !acc;
    match n.split with
    | None -> ()
    | Some s ->
        walk s.left;
        walk s.right
  in
  walk t.root;
  List.sort (fun a b -> Int.compare a.id b.id) !acc

let leaves t = List.filter (fun n -> n.split = None) (nodes t)

let predict t x =
  let rec descend n =
    match n.split with
    | None -> n.mean
    | Some s -> if x.(s.dim) <= s.threshold then descend s.left else descend s.right
  in
  descend t.root

let splits t =
  nodes t
  |> List.filter_map (fun n -> n.split)
  |> List.sort (fun a b -> Int.compare a.order b.order)

let center n =
  Array.init (Array.length n.lo) (fun k -> 0.5 *. (n.lo.(k) +. n.hi.(k)))

let size n =
  Array.init (Array.length n.lo) (fun k -> n.hi.(k) -. n.lo.(k))

let region_disjoint_cover t =
  let ok = ref true in
  let rec walk n =
    match n.split with
    | None -> ()
    | Some s ->
        let merged =
          List.sort Int.compare
            (Array.to_list s.left.indices @ Array.to_list s.right.indices)
        in
        if merged <> List.sort Int.compare (Array.to_list n.indices) then
          ok := false;
        if Array.length s.left.indices = 0 || Array.length s.right.indices = 0
        then ok := false;
        walk s.left;
        walk s.right
  in
  walk t.root;
  !ok
