(** Dense float vectors: the two helpers least squares needs for its
    residuals. *)

type t = float array

val norm2_sq : t -> float
(** Squared Euclidean norm. *)

val sub : t -> t -> t
(** Elementwise difference. Raises [Invalid_argument] on dimension
    mismatch. *)
