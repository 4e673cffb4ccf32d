module Ils = Archpred_linalg.Incremental_ls

type t = { ils : Ils.t; scratch : Ils.factor }

(* matches Network.fit's default ridge, so the subset chosen by scoring
   is fitted under the same regularisation *)
let jitter = 1e-8

(* The p-by-candidates design is never built whole: its rows go into
   the Gram one block at a time. *)
let create ~centers ~points ~responses =
  let ils =
    Ils.create ~jitter ~n_cols:(Array.length centers)
      ~rows:(Network.design_rows centers points)
      ~responses ()
  in
  { ils; scratch = Ils.factor ils }

let incremental t = t.ils

let score_factor t fac ~criterion =
  match Ils.sigma2 fac with
  | None -> infinity
  | Some s2 ->
      Criteria.score criterion ~p:(Ils.p t.ils) ~m:(Ils.size fac) ~sigma2:s2

let sigma2 t cols =
  match cols with
  | [] -> None
  | _ -> if Ils.set t.scratch cols then Ils.sigma2 t.scratch else None

let score t ~criterion cols =
  match sigma2 t cols with
  | None -> infinity
  | Some s2 ->
      Criteria.score criterion ~p:(Ils.p t.ils) ~m:(List.length cols)
        ~sigma2:s2
