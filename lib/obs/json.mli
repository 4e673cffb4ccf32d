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
(** [add_float buf f] appends [f] as {!to_string} renders [Float f]: the
    bytes {!put_float} writes. *)

val of_string : ?force_fallback:bool -> string -> (t, string) result
(** Parse one complete JSON value; [Error] carries a position-annotated
    message.  A number token that [int_of_string] accepts is an {!Int}
    (so [-0] is [Int 0]); any other is a {!Float} with
    [float_of_string]'s bits, or an error if that rejects it too.
    [force_fallback] is for tests: see {!number}. *)

(** {1 Writers}

    For encoders that write JSON text straight into a byte buffer,
    without building a {!t}.  Each writes at [pos], returns the index
    past what it wrote, and raises [Invalid_argument] when [b] is too
    short. *)

val float_room : int
(** The most bytes {!put_float} writes (24). *)

val put_float : ?force_fallback:bool -> bytes -> int -> float -> int
(** [put_float b pos f] writes [f] as {!to_string} renders [Float f]:
    the bytes of [Printf.sprintf "%.17g" f] (which round-trips every
    finite float), or [null] for a non-finite one.  For finite [|f|] in
    [\[1e-4, 1e17)] the digits come from integer arithmetic in C, which
    allocates nothing; other values go through [caml_format_float], the
    primitive behind [Printf], as every value does under
    [~force_fallback:true] (for tests, default [false]). *)

val put_int : bytes -> int -> int -> int
(** [put_int b pos v] writes the bytes of [string_of_int v], allocating
    nothing. *)

val put_string : bytes -> int -> string -> int
(** [put_string b pos s] copies [s] verbatim: no quoting, no escaping. *)

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

external number :
  bytes ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "archpred_json_number_byte" "archpred_json_number"
[@@noalloc]
(** [number b i n dst k flags] reads the number token at [i]: the
    longest run of number characters ([0-9 + - . e E]) in [\[i, n)],
    [b.\[i .. j-1\]].  It returns [r] with [token_end r = j] and
    [token_kind r] one of
    - {!int_token}: [int_of_string] accepts the token (an optional sign,
      then decimal digits only, within [\[min_int, max_int\]]).  Its
      value is read back with [int_value dst k], or with [flags]
      including {!ints_as_floats} it is stored as [dst.(k) =
      float_of_int v];
    - {!float_token}: [float_of_string]'s bits for the token are stored
      in [dst.(k)];
    - {!bad_token}: [float_of_string] rejects the token too (it may be
      empty); [dst] is untouched.  Indices outside [b] and a [k] outside
      [dst] also give it.

    Floats of at most 19 significant digits times [10^q], [q] in
    [\[-27, 55\]], are rounded exactly in integer arithmetic (the
    Eisel-Lemire method); others go through [strtod], the parse behind
    [float_of_string], as every float does when [flags] includes
    {!fallback} (for tests).  Allocates nothing. *)

val int_token : int
val float_token : int
val bad_token : int

val ints_as_floats : int
(** A {!number} flag: store an int token as its float. *)

val fallback : int
(** A {!number} flag, for tests: parse every float with [strtod]. *)

val token_end : int -> int
val token_kind : int -> int

val int_value : float array -> int -> int
(** [int_value dst k] is the int a {!number} call without
    {!ints_as_floats} stored in [dst.(k)]. *)

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

val value_at : ?force_fallback:bool -> bytes -> int -> int -> t * int
(** [value_at b i n] parses one value after optional whitespace from [i]
    and returns it with the index just past it.  Raises
    {!Syntax_error}.  [force_fallback] is for tests: see {!number}. *)

val member : string -> t -> t option
(** [member k (Obj fields)] looks up key [k]; [None] on other values. *)
