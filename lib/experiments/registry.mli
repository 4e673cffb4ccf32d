(** The catalogue of reproducible experiments: every table and figure of
    the paper's evaluation, plus the ablation benches. *)

type entry = {
  id : string;  (** e.g. ["table3"], ["fig7"], ["ablation_alpha"] *)
  title : string;
  run : Context.t -> Format.formatter -> unit;
}

val all : entry list
(** Paper order: tables 1–5, figures 1–7, then ablations. *)

val find : string -> entry option

val run_all : ?entries:entry list -> Context.t -> Format.formatter -> unit
(** Run a list of experiments (default {!all}) against one shared
    context, printing each in sequence with timing lines. *)
