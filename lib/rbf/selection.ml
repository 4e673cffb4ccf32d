module Tree = Archpred_regtree.Tree
module Matrix = Archpred_linalg.Matrix
module Least_squares = Archpred_linalg.Least_squares
module Ils = Archpred_linalg.Incremental_ls
module Obs = Archpred_obs

type result = {
  network : Network.t;
  selected_node_ids : int list;
  criterion : float;
  sigma2 : float;
}

let fit_subset ~design ~responses cols =
  match cols with
  | [] -> None
  | _ ->
      let cols = Array.of_list cols in
      let m = Array.length cols in
      let p = Array.length responses in
      if m >= p then None
      else
        let h = Matrix.select_cols design cols in
        let f = Least_squares.fit h responses in
        Some f

let evaluate_subset ~criterion ~design ~responses cols =
  match fit_subset ~design ~responses cols with
  | None -> infinity
  | Some f ->
      Criteria.score criterion ~p:(Array.length responses)
        ~m:(List.length cols) ~sigma2:f.Least_squares.sigma2

let select ?(obs = Obs.null) ?(criterion = Criteria.Aicc) ~tree ~candidates
    ~points ~responses () =
  let p = Array.length points in
  if p <> Array.length responses then
    invalid_arg "Selection.select: points/responses mismatch";
  if p = 0 then invalid_arg "Selection.select: empty sample";
  Obs.with_span obs "rbf.select" @@ fun () ->
  (* Subsets are scored through precomputed Gram moments. *)
  let all_centers = Array.map (fun c -> c.Tree_centers.center) candidates in
  let scorer = Subset_scorer.create ~centers:all_centers ~points ~responses in
  let fac = Ils.factor (Subset_scorer.incremental scorer) in
  let selected = Array.make (Array.length candidates) false in
  let current_ids () =
    let acc = ref [] in
    for i = Array.length selected - 1 downto 0 do
      if selected.(i) then acc := i :: !acc
    done;
    !acc
  in
  (* Start from the root center alone. *)
  let root = Tree.root tree in
  selected.(root.Tree.id) <- true;
  let best_score =
    ref (Subset_scorer.score scorer ~criterion (current_ids ()))
  in
  let consider_node (n : Tree.node) =
    match n.Tree.split with
    | None -> ()
    | Some s ->
        let trio = [| n.Tree.id; s.Tree.left.Tree.id; s.Tree.right.Tree.id |] in
        let saved = Array.map (fun id -> selected.(id)) trio in
        (* Everything outside the trio is held fixed; factor it once, then
           each of the eight combinations is at most three O(m^2) pushes
           on top — instead of eight full O(m^3) refactorisations. *)
        Array.iter (fun id -> selected.(id) <- false) trio;
        let base = current_ids () in
        Array.iteri (fun k id -> selected.(id) <- saved.(k)) trio;
        let base_ok = Ils.set fac base in
        let score_combo combo =
          Obs.incr obs "rbf.centers_tried";
          if base_ok then begin
            let pushed = ref 0 in
            let ok = ref true in
            for k = 0 to 2 do
              if !ok && (combo lsr k) land 1 = 1 then
                if Ils.push fac trio.(k) then incr pushed else ok := false
            done;
            let sc =
              if !ok then Subset_scorer.score_factor scorer fac ~criterion
              else infinity
            in
            for _ = 1 to !pushed do
              Ils.pop fac
            done;
            sc
          end
          else begin
            (* Base set not factorisable even with jitter (pathological);
               fall back to from-scratch scoring of the explicit subset. *)
            Array.iteri
              (fun k id -> selected.(id) <- (combo lsr k) land 1 = 1)
              trio;
            let sc = Subset_scorer.score scorer ~criterion (current_ids ()) in
            Array.iteri (fun k id -> selected.(id) <- saved.(k)) trio;
            sc
          end
        in
        let best_combo = ref None in
        for combo = 0 to 7 do
          let sc = score_combo combo in
          match !best_combo with
          | Some (best_sc, _) when best_sc <= sc -> ()
          | Some _ | None -> best_combo := Some (sc, combo)
        done;
        (match !best_combo with
        | Some (sc, combo) when sc <= !best_score ->
            Array.iteri
              (fun k id -> selected.(id) <- (combo lsr k) land 1 = 1)
              trio;
            best_score := sc
        | Some _ | None ->
            (* No combination beat the incumbent; restore. *)
            Array.iteri (fun k id -> selected.(id) <- saved.(k)) trio)
  in
  (* Breadth-first walk mirrors Orr's "move deeper in the regression tree"
     ordering. *)
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    consider_node n;
    match n.Tree.split with
    | None -> ()
    | Some s ->
        Queue.add s.Tree.left queue;
        Queue.add s.Tree.right queue
  done;
  (* Guarantee a non-empty model: fall back to the root alone. *)
  if current_ids () = [] then selected.(root.Tree.id) <- true;
  let ids = current_ids () in
  let centers = Array.of_list (List.map (fun i -> all_centers.(i)) ids) in
  let network, diag = Network.fit ~centers ~points ~responses () in
  Obs.count obs "rbf.centers_kept" (List.length ids);
  Obs.count obs "ils.pushes" (Ils.pushes fac);
  Obs.count obs "ils.pops" (Ils.pops fac);
  {
    network;
    selected_node_ids = ids;
    criterion =
      Criteria.score criterion ~p ~m:(List.length ids)
        ~sigma2:diag.Network.sigma2;
    sigma2 = diag.Network.sigma2;
  }

let select_forward ?(obs = Obs.null) ?(criterion = Criteria.Aicc) ?max_centers
    ~candidates ~points ~responses () =
  let p = Array.length points in
  if p <> Array.length responses then
    invalid_arg "Selection.select_forward: points/responses mismatch";
  if p = 0 then invalid_arg "Selection.select_forward: empty sample";
  Obs.with_span obs "rbf.select_forward" @@ fun () ->
  let all_centers = Array.map (fun c -> c.Tree_centers.center) candidates in
  let scorer = Subset_scorer.create ~centers:all_centers ~points ~responses in
  let fac = Ils.factor (Subset_scorer.incremental scorer) in
  let m_cap = match max_centers with Some m -> m | None -> max 1 (p / 2) in
  let chosen = ref [] in
  let best_score = ref infinity in
  let continue_ = ref true in
  while !continue_ && List.length !chosen < m_cap do
    (* The incumbent set is the shared base; each candidate addition is a
       single push on top of it. *)
    if not (Ils.set fac !chosen) then continue_ := false
    else begin
      let best_addition = ref None in
      Array.iteri
        (fun j _ ->
          if not (List.mem j !chosen) then begin
            Obs.incr obs "rbf.centers_tried";
            let sc =
              if Ils.push fac j then begin
                let sc = Subset_scorer.score_factor scorer fac ~criterion in
                Ils.pop fac;
                sc
              end
              else infinity
            in
            match !best_addition with
            | Some (sc', _) when sc' <= sc -> ()
            | Some _ | None -> best_addition := Some (sc, j)
          end)
        candidates;
      match !best_addition with
      | Some (sc, j) when sc < !best_score -. 1e-12 ->
          chosen := j :: !chosen;
          best_score := sc
      | Some _ | None -> continue_ := false
    end
  done;
  let ids = List.sort Int.compare !chosen in
  let ids = if ids = [] then [ 0 ] else ids in
  let centers = Array.of_list (List.map (fun i -> all_centers.(i)) ids) in
  let network, diag = Network.fit ~centers ~points ~responses () in
  Obs.count obs "rbf.centers_kept" (List.length ids);
  Obs.count obs "ils.pushes" (Ils.pushes fac);
  Obs.count obs "ils.pops" (Ils.pops fac);
  {
    network;
    selected_node_ids = ids;
    criterion =
      Criteria.score criterion ~p ~m:(List.length ids)
        ~sigma2:diag.Network.sigma2;
    sigma2 = diag.Network.sigma2;
  }
