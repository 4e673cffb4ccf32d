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
    without building a {!t}.  The bytes are [Printf.sprintf "%.17g" f]'s;
    for finite [|f|] in [\[1e-4, 1e17)] they are computed in integer
    arithmetic, without printf. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; [Error] carries a position-annotated
    message.  A number token that [int_of_string] accepts is an {!Int}
    (so [-0] is [Int 0]); any other is a {!Float} with
    [float_of_string]'s bits, or an error if that rejects it too. *)

(** {1 Lexers}

    The position-based scanners {!of_string} is built on, for decoders
    that read JSON in place from a byte buffer (the daemon's frame
    scanner).  Each reads [b] from index [i] up to the exclusive end [n]
    of the readable window.  Only {!lex_string} and {!value_at} allocate
    or raise. *)

exception Syntax_error of int * string
(** A malformed input: the index it was detected at, and what was
    expected there. *)

val skip_ws : bytes -> int -> int -> int
(** [skip_ws b i n] is the first index in [\[i, n)] that is not JSON
    whitespace, or [n]. *)

val number_end : bytes -> int -> int -> int
(** [number_end b i n] is the end of the longest run of number
    characters ([0-9 + - . e E]) from [i]: the number token is
    [b.\[i .. j-1\]].  It may be empty or malformed; classify it with
    the three functions below. *)

val is_int_token : bytes -> int -> int -> bool
(** [is_int_token b i j]: [int_of_string] accepts the token — an
    optional sign, then decimal digits only, within [\[min_int,
    max_int\]] — so it reads as an {!Int}. *)

val int_of_token : bytes -> int -> int -> int
(** The token's value; meaningful only when {!is_int_token} holds. *)

external float_of_token :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (float[@unboxed])
  = "archpred_json_strtod_byte" "archpred_json_strtod"
[@@noalloc]
(** [float_of_token b i j] is [float_of_string]'s value for a number
    token, or [nan] when [float_of_string] rejects it (no number token
    parses to [nan]).  Indices outside [b] also give [nan]. *)

val bytes_equal : bytes -> int -> int -> string -> bool
(** [bytes_equal b lo hi s]: the bytes [b.\[lo .. hi-1\]] are [s]. *)

val plain_string_end : bytes -> int -> int -> int
(** [plain_string_end b i n], with the opening quote at [i]: the index of
    the closing quote when the string holds no escape and no control
    character (its contents are then the raw bytes between), else [-1]. *)

val lex_string : Buffer.t -> bytes -> int -> int -> int
(** [lex_string buf b i n] reads the string whose opening quote is at
    [i], appends its decoded contents to [buf] and returns the index
    after the closing quote.  Raises {!Syntax_error}. *)

val value_at : bytes -> int -> int -> t * int
(** [value_at b i n] parses one value after optional whitespace from [i]
    and returns it with the index just past it.  Raises
    {!Syntax_error}. *)

val member : string -> t -> t option
(** [member k (Obj fields)] looks up key [k]; [None] on other values. *)
