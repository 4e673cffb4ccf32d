(** Dense row-major matrices.

    Sized for the problems in this library: design matrices of a few hundred
    rows (sample points) by up to ~100 columns (RBF centers or regression
    terms).  All operations are straightforward O(n^3)-style dense
    algorithms; no blocking or BLAS. *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)

val rows : t -> int
val cols : t -> int

val data : t -> float array
(** The row-major backing store itself, not a copy: entry [(i, j)] is at
    [i * cols m + j].  For kernels that read a matrix in place. *)

val get : t -> int -> int -> float
val transpose : t -> t
val mul : t -> t -> t
val mul_vec : t -> Vector.t -> Vector.t

val select_cols : t -> int array -> t
(** [select_cols a idx] keeps the listed columns, in order. The forward
    center-selection algorithm uses this to grow candidate design
    matrices. *)
