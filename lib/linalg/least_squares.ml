type fit = {
  coefficients : Vector.t;
  residuals : Vector.t;
  rss : float;
  sigma2 : float;
  regularized : bool;
}

let fallback_lambda = 1e-8

let diagnostics h y w ~regularized =
  let fitted = Matrix.mul_vec h w in
  let residuals = Vector.sub y fitted in
  let rss = Vector.norm2_sq residuals in
  let p = float_of_int (Array.length y) in
  { coefficients = w; residuals; rss; sigma2 = rss /. p; regularized }

let fit h y =
  if Matrix.rows h <> Array.length y then
    invalid_arg "Least_squares.fit: dimension mismatch";
  match Qr.least_squares h y with
  | w -> diagnostics h y w ~regularized:false
  | exception Qr.Rank_deficient ->
      let w = Qr.least_squares_ridge h y ~lambda:fallback_lambda in
      diagnostics h y w ~regularized:true

let fit_ridge h y ~lambda =
  if Matrix.rows h <> Array.length y then
    invalid_arg "Least_squares.fit_ridge: dimension mismatch";
  let w = Qr.least_squares_ridge h y ~lambda in
  diagnostics h y w ~regularized:true
