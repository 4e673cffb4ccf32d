(** Instruction classes of the trace ISA.

    The simulator is trace-driven: it does not execute semantics, it only
    needs to know, per instruction, which pipeline resources are exercised.
    Eleven classes cover the structures the paper's nine design parameters
    stress — integer and floating-point units of short and long latency,
    the two memory-queue classes, and control transfers. *)

type t =
  | Ialu  (** single-cycle integer ALU op *)
  | Imul  (** pipelined integer multiply *)
  | Idiv  (** unpipelined integer divide *)
  | Fadd  (** pipelined FP add/sub/convert *)
  | Fmul  (** pipelined FP multiply *)
  | Fdiv  (** unpipelined FP divide/sqrt *)
  | Load
  | Store
  | Branch  (** conditional branch *)
  | Jump  (** unconditional direct jump/call *)
  | Nop

val all : t list

val to_int : t -> int
(** Stable small-integer encoding, for packed trace storage. *)

val of_int : int -> t
(** Inverse of {!to_int}. Raises [Invalid_argument] on unknown codes. *)

val is_memory : t -> bool
val is_control : t -> bool

val uses_fp : t -> bool
(** Does the class occupy a floating-point unit? *)

val to_string : t -> string
