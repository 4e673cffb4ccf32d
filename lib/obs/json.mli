(** Minimal JSON values: enough to emit and re-parse the JSON-lines
    metrics stream without external dependencies.

    {!Sink.jsonl} serialises events with {!to_string}; tests and the
    smoke-check executable round-trip them with {!of_string}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialisation with full string escaping.
    Non-finite floats render as [null] (JSON has no literals for them). *)

val add_float : Buffer.t -> float -> unit
(** [add_float buf f] appends [f] as {!to_string} renders [Float f]:
    [%.17g] (round-trips every finite float), or [null] for a non-finite
    one.  For encoders that write JSON text straight into a buffer
    without building a {!t}. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; [Error] carries a position-annotated
    message.  Numbers without [./e] parse as {!Int}, others as {!Float}. *)

val member : string -> t -> t option
(** [member k (Obj fields)] looks up key [k]; [None] on other values. *)
