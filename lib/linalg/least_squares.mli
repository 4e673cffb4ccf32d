(** Robust linear least squares with diagnostics.

    Wraps {!Qr} with the fallback policy used throughout model fitting:
    try the plain QR solve, and if the design matrix is rank deficient
    (which happens when two RBF centers coincide or a regression term is
    constant), fall back to a small ridge penalty. *)

type fit = {
  coefficients : Vector.t;
  residuals : Vector.t;  (** [y - H w], per training point *)
  rss : float;  (** residual sum of squares *)
  sigma2 : float;  (** error variance estimate [rss / p] (maximum likelihood),
                       the \hat{sigma}^2 of the paper's AICc formula *)
  regularized : bool;  (** [true] when the ridge fallback was taken *)
}

val fit : Matrix.t -> Vector.t -> fit
(** [fit h y] minimises [||h w - y||^2]. Raises [Invalid_argument] if the
    dimensions disagree or [h] has more columns than rows. *)

val fit_ridge : Matrix.t -> Vector.t -> lambda:float -> fit
(** Ridge fit with explicit penalty. *)
