(** Dense float vectors.

    Thin, allocation-explicit helpers over [float array]; the model-fitting
    code paths (RBF design matrices, least squares, stepwise regression)
    use these rather than ad-hoc loops. *)

type t = float array

val dot : t -> t -> float
(** Inner product. Raises [Invalid_argument] on dimension mismatch. *)

val norm2 : t -> float
(** Euclidean norm. *)

val norm2_sq : t -> float
(** Squared Euclidean norm. *)

val add : t -> t -> t
val sub : t -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] sets [y <- a*x + y] in place. *)

val dist2 : t -> t -> float
(** Euclidean distance. *)
