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

val identity : int -> t
val rows : t -> int
val cols : t -> int

val data : t -> float array
(** The row-major backing store itself, not a copy: entry [(i, j)] is at
    [i * cols m + j].  For kernels that read a matrix in place. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t

val of_arrays : float array array -> t
(** Rows from an array of equal-length arrays. *)

val to_arrays : t -> float array array
val row : t -> int -> Vector.t
val col : t -> int -> Vector.t
val set_row : t -> int -> Vector.t -> unit
val set_col : t -> int -> Vector.t -> unit
val transpose : t -> t
val mul : t -> t -> t
val mul_vec : t -> Vector.t -> Vector.t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val equal : ?eps:float -> t -> t -> bool

val select_cols : t -> int array -> t
(** [select_cols a idx] keeps the listed columns, in order. The forward
    center-selection algorithm uses this to grow candidate design
    matrices. *)

val frobenius : t -> float
(** Frobenius norm. *)

val pp : Format.formatter -> t -> unit
