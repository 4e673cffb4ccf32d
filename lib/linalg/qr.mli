(** Householder QR factorisation and least-squares solving.

    This is the workhorse for fitting both the RBF-network weights (the
    output layer is linear in the weights, eq. 1 of the paper) and the
    linear baseline models: given a design matrix [H] (p rows, m columns,
    p >= m) and responses [y], find [w] minimising [||H w - y||^2]. *)

type t
(** Factorisation of a p-by-m matrix, p >= m. *)

exception Rank_deficient
(** Raised by [solve] when a diagonal entry of R is (almost) zero. *)

val decompose : Matrix.t -> t
(** Householder QR. Raises [Invalid_argument] if rows < cols. *)

val solve : t -> Vector.t -> Vector.t
(** [solve qr y] is the least-squares solution of [A w = y] for the
    factorised [A]. Raises {!Rank_deficient} if [A] had linearly dependent
    columns. *)

val r : t -> Matrix.t
(** The m-by-m upper-triangular factor. *)

val least_squares : Matrix.t -> Vector.t -> Vector.t
(** [least_squares a y] in one call. *)

val least_squares_ridge : Matrix.t -> Vector.t -> lambda:float -> Vector.t
(** Ridge-regularised least squares via the augmented system
    [\[A; sqrt(lambda) I\] w = \[y; 0\]]; well-defined even for
    rank-deficient [A] when [lambda > 0]. The RBF fitting path falls back
    to this when centers nearly coincide and the plain system becomes
    singular. *)
