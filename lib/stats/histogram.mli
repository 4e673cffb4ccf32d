(** Fixed-width histograms.

    Figure 5 of the paper shows the distribution of the parameter values at
    which the regression tree splits; the experiment harness renders that
    distribution with this module. *)

type t
(** A histogram with equally wide bins over a closed range. *)

val count : t -> int -> int
(** [count t i] is the number of observations in bin [i]. *)

val total : t -> int
(** Total number of observations added. *)

val bin_range : t -> int -> float * float
(** [bin_range t i] is the [(lo, hi)] interval of bin [i]. *)

val of_array : lo:float -> hi:float -> bins:int -> float array -> t
(** [of_array ~lo ~hi ~bins xs] counts [xs] in [bins] equal bins covering
    [\[lo, hi\]]; values outside are clamped into the first or last bin.
    Requires [bins > 0] and [lo < hi]. *)

val pp : ?width:int -> unit -> Format.formatter -> t -> unit
(** ASCII bar-chart rendering, bars scaled to [width] (default 40)
    characters. *)
