(** LU decomposition with partial pivoting.

    Used for general square solves and determinants; the least-squares
    paths prefer {!Qr} or {!Cholesky}. *)

type t
(** A factorisation [P*A = L*U]. *)

exception Singular
(** Raised when a pivot is exactly zero (the matrix is singular to working
    precision). *)

val decompose : Matrix.t -> t
(** Factorise a square matrix. Raises [Invalid_argument] if not square and
    {!Singular} if singular. *)

val solve : t -> Vector.t -> Vector.t
(** Solve [A x = b] using a prior factorisation. *)

val det : t -> float
(** Determinant of the factorised matrix. *)

val inverse : t -> Matrix.t
(** Explicit inverse; prefer [solve] where possible. *)
