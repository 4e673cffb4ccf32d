(** A single microarchitectural design parameter.

    Mirrors one row of Table 1 in the paper: a name, a natural range
    [lo..hi] (where [lo] is the value at normalised coordinate 0 — possibly
    the numerically larger one, e.g. pipeline depth 24..7), a number of
    levels (either fixed, or "S": one level per sample point, written
    [Per_sample]), a {!Transform.t}, and whether values are integral. *)

type levels =
  | Fixed of int  (** this many equally spaced settings, endpoints included *)
  | Per_sample  (** "S" in Table 1: as many settings as sample points *)

type t = {
  name : string;
  lo : float;
  hi : float;
  levels : levels;
  transform : Transform.t;
  integer : bool;  (** round decoded natural values to integers *)
}

val make :
  ?levels:levels ->
  ?transform:Transform.t ->
  ?integer:bool ->
  string ->
  lo:float ->
  hi:float ->
  t
(** [make name ~lo ~hi] with levels defaulting to [Per_sample], transform to
    [Linear], integer to [false]. Raises [Invalid_argument] for an empty
    name, [lo = hi], [Fixed l] with [l < 2], or a log transform over a
    non-positive range. *)

val level_count : t -> sample_size:int -> int
(** Number of distinct settings when drawing a sample of the given size. *)

val level_coordinates : t -> sample_size:int -> float array
(** The normalised coordinates of the settings: [k /. (l - 1)] for
    [k = 0 .. l-1], so both endpoints are always reachable. *)

val snap : t -> sample_size:int -> float -> float
(** Snap a normalised coordinate to the nearest level coordinate. *)

val decode : t -> float -> float
(** Natural value at a normalised coordinate (applying the transform and
    integer rounding). *)

val encode : t -> float -> float
(** Normalised coordinate of a natural value; inverse of {!decode} up to
    rounding. *)
