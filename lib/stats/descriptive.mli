(** Descriptive statistics over float arrays.

    These are the summary statistics used throughout model diagnostics:
    the paper reports mean, standard deviation and maximum of the absolute
    percentage error of CPI predictions (Table 3, Figure 4). *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val std : float array -> float
(** Unbiased sample standard deviation (divides by [n - 1]); [0.] when
    [n < 2]. *)

val max : float array -> float
(** Largest element. Raises [Invalid_argument] on an empty array. *)

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
