(** Functional units: per-class issue bandwidth and latency.

    Pipelined classes (integer ALU, multiplier, FP add, FP multiply, memory
    ports) accept up to their unit count of new operations every cycle.
    Unpipelined classes (integer and FP divide) tie their unit up for the
    whole operation.  The configuration is fixed across the paper's design
    space; it shapes which workloads are execution-bound. *)

type unit_class = Int_alu | Int_mul | Int_div | Fp_add | Fp_mul | Fp_div | Mem_port

type config = {
  int_alu : int * int;  (** (count, latency) *)
  int_mul : int * int;
  int_div : int * int;
  fp_add : int * int;
  fp_mul : int * int;
  fp_div : int * int;
  mem_port : int * int;  (** ports to the data cache; latency unused
                             (memory timing comes from {!Memory}) *)
}

val default_config : config

val class_of_opcode : Opcode.t -> unit_class option
(** Unit class needed by an instruction class; [None] for nops, branches
    and jumps execute on the integer ALU. *)

val latency : config -> unit_class -> int
val count : config -> unit_class -> int

val all_classes : unit_class array
(** Every class, in {!class_index} order. *)

val class_index : unit_class -> int
(** Position of a class in {!all_classes}: [0] to [6]. *)

val is_pipelined : unit_class -> bool
(** [false] for the two dividers. *)

type t

val create : config -> t

val try_issue : t -> cycle:int -> unit_class -> bool
(** Claim a unit of the class in this cycle.  Returns [false] if all units
    are taken this cycle (pipelined classes) or busy (unpipelined). *)

val structural_stalls : t -> int
(** Number of [try_issue] calls refused so far. *)

val reset_stats : t -> unit
