module Matrix = Archpred_linalg.Matrix
module Least_squares = Archpred_linalg.Least_squares
module Ils = Archpred_linalg.Incremental_ls

type t = {
  terms : Term.t list;
  coefficients : float array;
  sigma2 : float;
}

let terms t = t.terms
let coefficients t = t.coefficients
let sigma2 t = t.sigma2

let predict t x =
  List.fold_left2
    (fun acc term w -> acc +. (w *. Term.value term x))
    0. t.terms
    (Array.to_list t.coefficients)

let design_matrix terms points =
  let terms = Array.of_list terms in
  Matrix.init (Array.length points) (Array.length terms) (fun i j ->
      Term.value terms.(j) points.(i))

let fit ~terms ~points ~responses =
  if terms = [] then invalid_arg "Model.fit: no terms";
  if Array.length points <> Array.length responses then
    invalid_arg "Model.fit: points/responses mismatch";
  let h = design_matrix terms points in
  let f = Least_squares.fit h responses in
  {
    terms;
    coefficients = f.Least_squares.coefficients;
    sigma2 = f.Least_squares.sigma2;
  }

let aic ~p ~m ~sigma2 =
  if sigma2 <= 0. then neg_infinity
  else (float_of_int p *. log sigma2) +. (2. *. float_of_int m)

let stepwise ?(obs = Archpred_obs.null) ?(criterion = aic) ~points ~responses
    () =
  let p = Array.length points in
  if p = 0 then invalid_arg "Model.stepwise: empty sample";
  Archpred_obs.with_span obs "linreg.stepwise" @@ fun () ->
  let dim = Array.length points.(0) in
  let pool = Term.full_set ~dim in
  let all_terms = Array.of_list pool in
  let n_terms = Array.length all_terms in
  (* Every move the search can make selects columns of one fixed design
     matrix, so its Gram moments are computed once and each candidate set
     is scored by an incremental Cholesky — no per-candidate design
     rebuild, no per-candidate QR. *)
  let design = design_matrix pool points in
  let ils =
    Ils.create ~n_cols:(Matrix.cols design) ~rows:(Ils.matrix_rows design)
      ~responses ()
  in
  let fac = Ils.factor ils in
  let score_factor m =
    if m >= p then infinity
    else
      match Ils.sigma2 fac with
      | None -> infinity
      | Some sigma2 -> criterion ~p ~m ~sigma2
  in
  let score_set cols =
    let m = List.length cols in
    if m >= p then infinity
    else if Ils.set fac cols then score_factor m
    else infinity
  in
  let start =
    (* Main effects if they fit; otherwise just the intercept.
       [Term.full_set] lists the intercept and main effects first, so the
       start set is the prefix of column indices. *)
    let mains = Term.main_effects_only ~dim in
    if List.length mains < p then List.init (List.length mains) Fun.id
    else [ 0 ]
  in
  (* [current] holds column indices in the same order the old QR search
     kept its term list: start order, additions appended at the end. *)
  let current = ref start in
  let best_score = ref (score_set !current) in
  let improved = ref true in
  while !improved do
    improved := false;
    let best_move = ref None in
    let consider sc cols =
      match !best_move with
      | Some (sc', _) when sc' <= sc -> ()
      | Some _ | None -> best_move := Some (sc, cols)
    in
    (* Additions: the incumbent set is the shared factor base; each
       candidate term is one O(m^2) push on top, popped before the next. *)
    let m = List.length !current in
    if m + 1 < p && Ils.set fac !current then
      for j = 0 to n_terms - 1 do
        if not (List.mem j !current) then begin
          let sc =
            if Ils.push fac j then begin
              let sc = score_factor (m + 1) in
              Ils.pop fac;
              sc
            end
            else infinity
          in
          consider sc (!current @ [ j ])
        end
      done;
    (* Removals: refactor the remaining m-1 columns (still cheaper than one
       QR refit of the old implementation). *)
    List.iter
      (fun j ->
        if all_terms.(j) <> Term.Intercept then begin
          let cols = List.filter (fun u -> u <> j) !current in
          consider (score_set cols) cols
        end)
      !current;
    (match !best_move with
    | Some (sc, cols) when sc < !best_score -. 1e-12 ->
        best_score := sc;
        current := cols;
        improved := true
    | Some _ | None -> ())
  done;
  let terms_of cols = List.map (fun j -> all_terms.(j)) cols in
  (* Final coefficients come from the same QR path as [fit], and the start
     set is kept as a guard: the incremental criterion agrees with the QR
     one to rounding, but never let rounding return a worse model than the
     search started from. *)
  let final_fit cols =
    let model = fit ~terms:(terms_of cols) ~points ~responses in
    (criterion ~p ~m:(List.length cols) ~sigma2:model.sigma2, model)
  in
  let start_crit, start_model = final_fit start in
  Archpred_obs.count obs "ils.pushes" (Ils.pushes fac);
  Archpred_obs.count obs "ils.pops" (Ils.pops fac);
  if !current = start then start_model
  else
    let final_crit, final_model = final_fit !current in
    if final_crit <= start_crit then final_model else start_model

let pp ?names ppf t =
  List.iteri
    (fun i term ->
      if i > 0 then Format.fprintf ppf " + ";
      Format.fprintf ppf "%.4g*%s" t.coefficients.(i)
        (Term.to_string ?names term))
    t.terms
