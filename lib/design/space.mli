(** A design space: an ordered set of parameters.

    Points live in the normalised unit hypercube [\[0,1\]^n]; dimension [k]
    of a point is the normalised coordinate of parameter [k].  Sampling
    plans, discrepancy computation, regression trees and RBF networks all
    operate in normalised space, which both equalises scales across
    parameters and bakes in the per-parameter transformation of Table 1
    (a log-transformed parameter is uniform in log-space). *)

type t

type point = float array
(** One design point in normalised coordinates. *)

val create : Parameter.t list -> t
(** Build a space.  Parameter names must be distinct and the list
    non-empty. *)

val dimension : t -> int
val parameters : t -> Parameter.t array
val parameter : t -> int -> Parameter.t

val index_of : t -> string -> int
(** Dimension index of a named parameter. Raises [Not_found]. *)

val decode : t -> point -> float array
(** Natural values of a point, per parameter, in order. *)

val encode : t -> float array -> point
(** Normalised point from natural values. *)

val snap : t -> sample_size:int -> point -> point
(** Snap every coordinate to its parameter's level grid. *)

val validate_point : t -> point -> unit
(** Raise [Invalid_argument] if the point has the wrong arity or leaves the
    unit cube. *)

val validate_points : t -> point array -> unit
(** Validate a whole batch with the same checks and messages as
    {!validate_point}, in two branch-light passes; used by the batched
    prediction path where per-point closure dispatch is measurable. *)

val sub_box : t -> lo:point -> hi:point -> point -> point
(** [sub_box t ~lo ~hi u] maps a point [u] of the unit cube affinely into
    the axis-aligned box [\[lo, hi\]]; used to generate test points within
    the narrower Table 2 region of the full Table 1 space. *)

val pp_point : t -> Format.formatter -> point -> unit
