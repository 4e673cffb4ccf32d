(** Wire protocol of the prediction daemon: two self-describing
    framings on one connection, detected per frame from its first byte.

    {b JSON lines} — a frame starting with ['{'] runs to the next
    newline.  Requests look like [{"id":1,"point":[0.5,...]}] (add
    ["natural":true] for natural-unit values) or the control line
    [{"cmd":"reload","path":"m.model"}].  Responses carry
    [{"id":1,"status":"ok","value":V}]; reload outcomes
    [{"reload":"ok"|"failed","detail":D}].

    {b Binary} — magic byte [0xA7], a 32-bit little-endian payload
    length, then the payload: requests are [id u32, kind u8 (0 =
    normalized, 1 = natural), dim u16, dim × f64 LE] (so the length
    must equal [7 + 8*dim]); responses are always 13 bytes: [id u32,
    status u8, value f64 LE].  Binary ids are unsigned: they decode to
    [\[0, 2^32)].

    Decoding is incremental and total: arbitrary chunking, truncation
    and corruption produce [`Need_more] or a sticky [`Error] value —
    never an exception — so a malformed peer can only ever kill its own
    connection.  A JSON line decodes to exactly the message that
    [Json.of_string] of the line and the first value of each key give
    (any key order, whitespace, unknown keys skipped, escaped key names);
    it is scanned in place, without building a [Json.t]. *)

type request =
  | Predict of { id : int; point : float array; natural : bool }
  | Reload of string option
      (** hot-reload the model, optionally from a new path; JSON-only *)

type status = Ok | Overloaded | Timeout | Bad_request | Shutting_down

type response =
  | Reply of { id : int; status : status; value : float }
      (** [value] is meaningful only when [status = Ok] (it is NaN on
          the JSON wire otherwise) *)
  | Reload_reply of { ok : bool; detail : string }

type wire = Json_wire | Binary_wire

val status_name : status -> string
val status_of_name : string -> status option

val encode_request : wire -> request -> string
(** Raises [Invalid_argument] for [Binary_wire] reload requests —
    control messages are JSON-only — and for [Binary_wire] ids outside
    [\[0, 2^32)]. *)

val encode_response : wire -> response -> string
(** Raises [Invalid_argument] for [Binary_wire] reload replies. *)

val add_request : Buffer.t -> wire -> request -> unit
(** [add_request b wire req] appends the bytes of [encode_request wire
    req] to [b]. *)

(** {1 In-place writers}

    The encoders of predict requests and replies, which [encode_*] and
    [add_request] wrap: each writes one frame into [b] from [pos].  They
    allocate nothing, except to format a float outside [%.17g]'s integer
    range (see [Json.put_float]).  [b] must have the room stated; a
    writer raises [Invalid_argument] rather than write past its end. *)

val request_room : wire -> int -> int
(** [request_room wire dim]: the most bytes a predict request of [dim]
    coordinates takes on [wire]. *)

val put_request :
  bytes -> int -> wire -> id:int -> natural:bool -> float array -> int
(** [put_request b pos wire ~id ~natural point] writes the bytes of
    [encode_request wire (Predict {id; point; natural})] into [b] from
    [pos] and returns the index past them.  Raises [Invalid_argument]
    for [Binary_wire] ids outside [\[0, 2^32)]. *)

val reply_len : int
(** Size in bytes of a binary [Reply] frame (18). *)

val put_binary_reply : bytes -> int -> id:int -> status:status -> float -> unit
(** [put_binary_reply b pos ~id ~status value] writes the binary [Reply]
    frame into [b.[pos .. pos + reply_len - 1]] — the bytes of
    [encode_response Binary_wire (Reply {id; status; value})]. *)

val json_reply_room : int
(** The most bytes a JSON [Reply] frame takes (96). *)

val put_json_reply : bytes -> int -> id:int -> status:status -> float -> int
(** [put_json_reply b pos ~id ~status value] writes the bytes of
    [encode_response Json_wire (Reply {id; status; value})] into [b]
    from [pos] and returns the index past them. *)

type decoder
(** Incremental frame reassembler for one connection.  A protocol
    error is sticky: every subsequent [next_*] returns the same
    [`Error] and fed bytes are discarded. *)

val decoder : ?max_frame:int -> ?force_fallback:bool -> unit -> decoder
(** [max_frame] (default 1 MiB) bounds both binary payloads and JSON
    line length; an oversized frame is a protocol error, not an
    allocation.  [force_fallback] (default [false]) is for tests: every
    float of a JSON frame is parsed by [strtod] (see [Json.number]). *)

val feed : decoder -> bytes -> int -> int -> unit
(** [feed d src pos n] appends [n] bytes of [src] starting at [pos]. *)

val feed_string : decoder -> string -> unit

val next_request :
  decoder -> [ `Msg of request * wire | `Need_more | `Error of string ]
(** Server side: decode the next complete request, replying on the
    same [wire] the request arrived on. *)

val next_response :
  decoder -> [ `Msg of response * wire | `Need_more | `Error of string ]
(** Client side: decode the next complete response. *)
