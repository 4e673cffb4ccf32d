(** The benchmark definition file, [BENCHMARK.json]: workload names and
    the end-to-end and per-layer metric definitions. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** share of the baseline median by which an end-to-end metric may
          worsen before it counts as a regression; [None] for per-layer
          metrics *)
}

type t = {
  run_seconds : int;
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

val of_string : string -> (t, string) result
val load : string -> (t, string) result

val valid_name : string -> bool
(** At most 64 of [A-Za-z0-9_.-], starting with a letter or digit. *)

val problems : t -> string list
(** Every way the definition breaks the benchmark contract: malformed or
    repeated names, bad units, bounds outside (0, 0.25], a missing
    [setup_s], workload and metric counts out of range.  [[]] when
    valid. *)
