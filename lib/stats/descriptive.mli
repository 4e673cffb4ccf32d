(** Descriptive statistics over float arrays.

    These are the summary statistics used throughout model diagnostics:
    the paper reports mean, standard deviation and maximum of the absolute
    percentage error of CPI predictions (Table 3, Figure 4). *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (divides by [n - 1]); [0.] when [n < 2]. *)

val population_variance : float array -> float
(** Variance dividing by [n]. *)

val std : float array -> float
(** Unbiased sample standard deviation. *)

val min : float array -> float
(** Smallest element. Raises [Invalid_argument] on an empty array. *)

val max : float array -> float
(** Largest element. Raises [Invalid_argument] on an empty array. *)

val sum : float array -> float
(** Kahan-compensated sum. *)

val sse : float array -> float
(** Sum of squared deviations from the mean: [sum_i (x_i - mean)^2].
    This is the impurity measure minimised by regression-tree splits. *)

val geometric_mean : float array -> float
(** Geometric mean; requires all elements positive. *)

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
}
(** One-pass summary of a dataset. *)

val summarize : float array -> summary
(** [summarize xs] computes all fields in a single pass. Raises
    [Invalid_argument] on an empty array. *)

val pp_summary : Format.formatter -> summary -> unit
(** Human-readable rendering of a summary. *)
