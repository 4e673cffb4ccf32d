module Json = Archpred_obs.Json

(* Wire protocol of the prediction daemon.

   Two self-describing framings share one connection, detected per
   frame from its first byte:

   - JSON lines: a frame starting with '{' runs to the next '\n'.
     Requests: [{"id":N,"point":[...],"natural":BOOL}] (natural
     defaults to false) or the control line
     [{"cmd":"reload","path":PATH}] (path optional).  Responses:
     [{"id":N,"status":S,"value":V}] with S one of "ok", "overloaded",
     "timeout", "bad_request", "shutting_down"; reload outcomes are
     [{"reload":"ok"|"failed","detail":D}].

   - Binary: a frame starting with the magic byte 0xA7, then a 32-bit
     little-endian payload length, then the payload.  Request payload:
     id u32, kind u8 (0 = normalized point, 1 = natural values),
     dim u16, then dim little-endian f64 coordinates — so the length
     must equal 7 + 8*dim.  Response payload (always 13 bytes): id u32,
     status u8 (ordinal of [status]), value f64.

   The decoder is pure and incremental: bytes are [feed]ed in arbitrary
   chunks and [next_request]/[next_response] either produce a complete
   message, ask for more input, or report a protocol error.  Errors are
   sticky — a connection that has desynced cannot be re-trusted — and
   are values, never exceptions, so a malformed peer can only ever kill
   its own connection. *)

type request =
  | Predict of { id : int; point : float array; natural : bool }
  | Reload of string option

type status = Ok | Overloaded | Timeout | Bad_request | Shutting_down

type response =
  | Reply of { id : int; status : status; value : float }
  | Reload_reply of { ok : bool; detail : string }

type wire = Json_wire | Binary_wire

let magic = '\xa7'
let header_len = 5 (* magic + u32 payload length *)
let max_dim = 1024 (* no realistic design space is wider *)

let status_code = function
  | Ok -> 0
  | Overloaded -> 1
  | Timeout -> 2
  | Bad_request -> 3
  | Shutting_down -> 4

let status_of_code = function
  | 0 -> Some Ok
  | 1 -> Some Overloaded
  | 2 -> Some Timeout
  | 3 -> Some Bad_request
  | 4 -> Some Shutting_down
  | _ -> None

let status_name = function
  | Ok -> "ok"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Bad_request -> "bad_request"
  | Shutting_down -> "shutting_down"

let status_of_name = function
  | "ok" -> Some Ok
  | "overloaded" -> Some Overloaded
  | "timeout" -> Some Timeout
  | "bad_request" -> Some Bad_request
  | "shutting_down" -> Some Shutting_down
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

(* Encoders append to a caller's [Buffer.t], so a peer can batch many
   frames into one socket write.  JSON predict frames are written as text
   directly, without building a [Json.t]; the bytes are those
   [Json.to_string] gives for the equivalent object (test_served pins
   that). *)

let binary_request ~id ~natural point =
  if id < 0 || id > 0xFFFF_FFFF then
    invalid_arg "Frame.binary_request: id outside [0, 2^32)";
  let dim = Array.length point in
  let payload = 7 + (8 * dim) in
  let b = Bytes.create (header_len + payload) in
  Bytes.set b 0 magic;
  Bytes.set_int32_le b 1 (Int32.of_int payload);
  Bytes.set_int32_le b 5 (Int32.of_int id);
  Bytes.set_uint8 b 9 (if natural then 1 else 0);
  Bytes.set_uint16_le b 10 dim;
  Array.iteri
    (fun i v -> Bytes.set_int64_le b (12 + (8 * i)) (Int64.bits_of_float v))
    point;
  Bytes.to_string b

let add_request b wire req =
  match (wire, req) with
  | Json_wire, Predict { id; point; natural } ->
      Buffer.add_string b "{\"id\":";
      Buffer.add_string b (string_of_int id);
      Buffer.add_string b ",\"point\":[";
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          Json.add_float b v)
        point;
      Buffer.add_char b ']';
      if natural then Buffer.add_string b ",\"natural\":true";
      Buffer.add_string b "}\n"
  | Json_wire, Reload path ->
      let fields =
        ("cmd", Json.String "reload")
        ::
        (match path with
        | Some p -> [ ("path", Json.String p) ]
        | None -> [])
      in
      Buffer.add_string b (Json.to_string (Json.Obj fields));
      Buffer.add_char b '\n'
  | Binary_wire, Predict { id; point; natural } ->
      Buffer.add_string b (binary_request ~id ~natural point)
  | Binary_wire, Reload _ ->
      invalid_arg "Frame.encode_request: reload is a JSON-only control message"

let reply_len = header_len + 13

(* The binary reply is the daemon's per-request output on the hot path:
   fixed-size, written in place, allocation-free (enforced by
   tools/analyze/hotpaths.sexp). *)
let[@inline] put_binary_reply b pos ~id ~status value =
  Bytes.set b pos magic;
  Bytes.set_int32_le b (pos + 1) 13l;
  Bytes.set_int32_le b (pos + 5) (Int32.of_int id);
  Bytes.set_uint8 b (pos + 9) (status_code status);
  Bytes.set_int64_le b (pos + 10) (Int64.bits_of_float value)

let binary_reply ~id ~status value =
  let f = Bytes.create reply_len in
  put_binary_reply f 0 ~id ~status value;
  Bytes.to_string f

let add_response b wire resp =
  match (wire, resp) with
  | Json_wire, Reply { id; status; value } ->
      Buffer.add_string b "{\"id\":";
      Buffer.add_string b (string_of_int id);
      Buffer.add_string b ",\"status\":\"";
      Buffer.add_string b (status_name status);
      Buffer.add_char b '"';
      if status = Ok then begin
        Buffer.add_string b ",\"value\":";
        Json.add_float b value
      end;
      Buffer.add_string b "}\n"
  | Json_wire, Reload_reply { ok; detail } ->
      Buffer.add_string b
        (Json.to_string
           (Json.Obj
              [
                ("reload", Json.String (if ok then "ok" else "failed"));
                ("detail", Json.String detail);
              ]));
      Buffer.add_char b '\n'
  | Binary_wire, Reply { id; status; value } ->
      Buffer.add_string b (binary_reply ~id ~status value)
  | Binary_wire, Reload_reply _ ->
      invalid_arg "Frame.encode_response: reload replies are JSON-only"

let encode_with add wire msg =
  let b = Buffer.create 128 in
  add b wire msg;
  Buffer.contents b

let encode_request wire req =
  match (wire, req) with
  | Binary_wire, Predict { id; point; natural } -> binary_request ~id ~natural point
  | _ -> encode_with add_request wire req

let encode_response wire resp =
  match (wire, resp) with
  | Binary_wire, Reply { id; status; value } -> binary_reply ~id ~status value
  | _ -> encode_with add_response wire resp

(* ------------------------------------------------------------------ *)
(* JSON frames, scanned in place                                      *)
(* ------------------------------------------------------------------ *)

(* A JSON frame is read straight out of the decoder's buffer through
   [Json]'s lexers, with no line copy and no [Json.t] on the common path:
   an int "id", a "point" list of numbers (written into a scratch array),
   a reply's numeric "value" and plain "status".  Every other value (and
   every later duplicate of a key) goes through [Json.value_at], so the
   language accepted and the message decoded are exactly those of
   [Json.of_string] followed by a lookup of each key's first value. *)

(* Keys of a request frame, by code. *)
let k_id = 0
let k_point = 1
let k_natural = 2
let k_cmd = 3
let k_path = 4
let request_keys = [| "id"; "point"; "natural"; "cmd"; "path" |]

(* Keys of a response frame, by code ("id" is code 0 in both). *)
let k_status = 1
let k_value = 2
let k_reload = 3
let k_detail = 4
let response_keys = [| "id"; "status"; "value"; "reload"; "detail" |]
let statuses = [| Ok; Overloaded; Timeout; Bad_request; Shutting_down |]
let status_names = Array.map status_name statuses

(* What the scan of one JSON frame has found. *)
type fields = {
  mutable key : int;  (* code of the key just read, -1 if not in the table *)
  mutable seen : int;  (* bit k: key k met; only its first value counts *)
  mutable id : int;
  mutable id_ok : bool;  (* the first "id" was an int *)
  mutable coords : float array;
      (* max_dim + 1 slots, [||] until the first JSON frame; a request's
         "point" or a reply's "value" (slot 0) *)
  mutable n : int;  (* numbers read into [coords] *)
  mutable coords_ok : bool;  (* [coords] holds the first "point"/"value" *)
  mutable status : int;  (* index in [statuses] of a plain "status", or -1 *)
  slow : Json.t option array;  (* first value of key k no fast path took *)
}

let fields () =
  {
    key = -1;
    seen = 0;
    id = 0;
    id_ok = false;
    coords = [||];
    n = 0;
    coords_ok = false;
    status = -1;
    slow = Array.make 5 None;
  }

let reset_fields f =
  if Array.length f.coords = 0 then f.coords <- Array.make (max_dim + 1) 0.;
  f.seen <- 0;
  f.id_ok <- false;
  f.n <- 0;
  f.coords_ok <- false;
  f.status <- -1;
  Array.fill f.slow 0 (Array.length f.slow) None

let syntax at msg = raise (Json.Syntax_error (at, msg))

(* Index of the raw name [b.[lo..hi)] in [names], or -1. *)
let raw_code names b lo hi =
  let c = ref (-1) in
  for k = 0 to Array.length names - 1 do
    if Json.bytes_equal b lo hi names.(k) then c := k
  done;
  !c

(* Whether the value at [i] is read by [Json]'s number lexer. *)
let number_start b i n =
  i < n
  && match Bytes.get b i with '"' | 't' | 'f' | 'n' | '{' | '[' -> false | _ -> true

(* Store the number token at [i] as [Json.of_string] would read it into
   a coordinate: an int token through [float_of_int] (so [-0] is [+0.]),
   any other through [float_of_string].  Returns the index past the
   token, or -1 when it is not a number. *)
let scan_coord b i n (dst : float array) k =
  let j = Json.number_end b i n in
  if Json.is_int_token b i j then begin
    dst.(k) <- float_of_int (Json.int_of_token b i j);
    j
  end
  else
    let v = Json.float_of_token b i j in
    if Float.is_nan v then -1
    else begin
      dst.(k) <- v;
      j
    end

(* The list at [i] (b.[i] = '['), every element a number: read into
   [f.coords] (a count past max_dim reuses the spare last slot), and the
   index past ']' returned.  -1 when an element is not a number token;
   the caller then reads the value generically. *)
let scan_point f b i n =
  let dst = f.coords in
  let cap = Array.length dst - 1 in
  let p = ref (Json.skip_ws b (i + 1) n) in
  let k = ref 0 in
  let r = ref (-2) in
  if !p < n && Char.equal (Bytes.get b !p) ']' then r := !p + 1;
  while !r = -2 do
    if not (number_start b !p n) then r := -1
    else begin
      let j = scan_coord b !p n dst (if !k < cap then !k else cap) in
      if j < 0 then syntax !p "bad number";
      incr k;
      let e = Json.skip_ws b j n in
      if e < n && Char.equal (Bytes.get b e) ',' then p := Json.skip_ws b (e + 1) n
      else if e < n && Char.equal (Bytes.get b e) ']' then r := e + 1
      else syntax e "expected , or ]"
    end
  done;
  f.n <- !k;
  !r

let slow_field f b code v hi =
  let value, e = Json.value_at b v hi in
  f.slow.(code) <- Some value;
  e

let id_field f b v hi =
  let j = Json.number_end b v hi in
  if Json.is_int_token b v j then begin
    f.id <- Json.int_of_token b v j;
    f.id_ok <- true;
    j
  end
  else if Float.is_nan (Json.float_of_token b v j) then syntax j "bad number"
  else j

let request_field f b code v hi =
  if code = k_id && number_start b v hi then id_field f b v hi
  else if code = k_point && v < hi && Char.equal (Bytes.get b v) '[' then begin
    let e = scan_point f b v hi in
    if e >= 0 then begin
      f.coords_ok <- true;
      e
    end
    else slow_field f b code v hi
  end
  else slow_field f b code v hi

let response_field f b code v hi =
  if code = k_id && number_start b v hi then id_field f b v hi
  else if code = k_value && number_start b v hi then begin
    let j = scan_coord b v hi f.coords 0 in
    if j < 0 then syntax v "bad number";
    f.coords_ok <- true;
    j
  end
  else begin
    let e = if code = k_status then Json.plain_string_end b v hi else -1 in
    let s = if e >= 0 then raw_code status_names b (v + 1) e else -1 in
    if s >= 0 then begin
      f.status <- s;
      e + 1
    end
    else slow_field f b code v hi
  end

(* Read the key at [i] into [f.key]; returns the index past its quote. *)
let read_key f names b i hi =
  let e = Json.plain_string_end b i hi in
  if e >= 0 then begin
    f.key <- raw_code names b (i + 1) e;
    e + 1
  end
  else begin
    let buf = Buffer.create 16 in
    let e = Json.lex_string buf b i hi in
    let key = Buffer.contents buf in
    f.key <- -1;
    Array.iteri (fun k name -> if String.equal key name then f.key <- k) names;
    e
  end

(* Scan the object b.[lo..hi) (b.[lo] = '{', nothing but whitespace may
   follow it): the first value of each key in [names] goes to [field],
   every other value is only checked.  Raises [Json.Syntax_error]. *)
let scan_object f b lo hi names field =
  reset_fields f;
  let i = ref (Json.skip_ws b (lo + 1) hi) in
  if !i < hi && Char.equal (Bytes.get b !i) '}' then incr i
  else begin
    let more = ref true in
    while !more do
      let c = Json.skip_ws b (read_key f names b (Json.skip_ws b !i hi) hi) hi in
      if c >= hi || not (Char.equal (Bytes.get b c) ':') then syntax c "expected :";
      let v = Json.skip_ws b (c + 1) hi in
      let code = f.key in
      let ve =
        if code < 0 || f.seen land (1 lsl code) <> 0 then snd (Json.value_at b v hi)
        else begin
          f.seen <- f.seen lor (1 lsl code);
          field f b code v hi
        end
      in
      let e = Json.skip_ws b ve hi in
      if e < hi && Char.equal (Bytes.get b e) ',' then i := e + 1
      else if e < hi && Char.equal (Bytes.get b e) '}' then begin
        i := e + 1;
        more := false
      end
      else syntax e "expected , or }"
    done
  end;
  let t = Json.skip_ws b !i hi in
  if t <> hi then syntax t "trailing input"

(* A "point" the fast path did not take is never a list of numbers (its
   first non-number element made the scan bail), so it is an error, as
   is a non-int "id"; their values were only checked. *)
let request_of_fields f =
  match f.slow.(k_cmd) with
  | Some (Json.String "reload") ->
      let path =
        match f.slow.(k_path) with Some (Json.String p) -> Some p | _ -> None
      in
      Result.Ok (Reload path)
  | Some _ -> Result.Error "unknown cmd"
  | None ->
      let natural =
        match f.slow.(k_natural) with Some (Json.Bool b) -> b | _ -> false
      in
      if not (f.id_ok && f.coords_ok) then
        Result.Error "request needs an int \"id\" and a \"point\" list of numbers"
      else if f.n > max_dim then Result.Error "point too wide"
      else Result.Ok (Predict { id = f.id; point = Array.sub f.coords 0 f.n; natural })

let response_of_fields f =
  match f.slow.(k_reload) with
  | Some (Json.String outcome) ->
      let detail =
        match f.slow.(k_detail) with Some (Json.String s) -> s | _ -> ""
      in
      Result.Ok (Reload_reply { ok = String.equal outcome "ok"; detail })
  | Some _ -> Result.Error "bad reload reply"
  | None -> (
      let reply status =
        let value = if f.coords_ok then f.coords.(0) else Float.nan in
        Result.Ok (Reply { id = f.id; status; value })
      in
      match f.slow.(k_status) with
      | _ when not f.id_ok -> Result.Error "response needs \"id\" and \"status\""
      | _ when f.status >= 0 -> reply statuses.(f.status)
      | Some (Json.String s) -> (
          match status_of_name s with
          | None -> Result.Error ("unknown status " ^ s)
          | Some status -> reply status)
      | _ -> Result.Error "response needs \"id\" and \"status\"")

let scan_json what names field of_fields f b lo hi =
  match scan_object f b lo hi names field with
  | () -> of_fields f
  | exception Json.Syntax_error (at, msg) ->
      Result.Error (Printf.sprintf "bad JSON %s: character %d: %s" what (at - lo) msg)

let scan_request f b lo hi =
  scan_json "request" request_keys request_field request_of_fields f b lo hi

let scan_response f b lo hi =
  scan_json "response" response_keys response_field response_of_fields f b lo hi

(* ------------------------------------------------------------------ *)
(* Binary payloads, read in place                                     *)
(* ------------------------------------------------------------------ *)

(* Ids are u32 on the wire. *)
let get_id b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF

let parse_binary_request b off n =
  if n < 7 then Result.Error "binary request payload too short"
  else
    let id = get_id b off in
    match Bytes.get_uint8 b (off + 4) with
    | k when k > 1 -> Result.Error (Printf.sprintf "unknown request kind %d" k)
    | k ->
        let natural = k = 1 in
        let dim = Bytes.get_uint16_le b (off + 5) in
        if dim > max_dim then Result.Error "point too wide"
        else if n <> 7 + (8 * dim) then
          Result.Error "binary request length inconsistent with dim"
        else begin
          let point = Array.create_float dim in
          for i = 0 to dim - 1 do
            point.(i) <- Int64.float_of_bits (Bytes.get_int64_le b (off + 7 + (8 * i)))
          done;
          Result.Ok (Predict { id; point; natural })
        end

let parse_binary_response b off n =
  if n <> 13 then Result.Error "binary response payload must be 13 bytes"
  else
    match status_of_code (Bytes.get_uint8 b (off + 4)) with
    | None -> Result.Error "unknown response status"
    | Some status ->
        let value = Int64.float_of_bits (Bytes.get_int64_le b (off + 5)) in
        Result.Ok (Reply { id = get_id b off; status; value })

(* ------------------------------------------------------------------ *)
(* Incremental decoding                                               *)
(* ------------------------------------------------------------------ *)

type decoder = {
  max_frame : int;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;  (* bytes buffered past [start] *)
  mutable scanned : int;  (* bytes past [start] known to hold no '\n' *)
  mutable failed : string option;  (* sticky protocol error *)
  fields : fields;  (* JSON scan state *)
}

let default_max_frame = 1 lsl 20

let decoder ?(max_frame = default_max_frame) () =
  if max_frame < header_len + 13 then
    invalid_arg "Frame.decoder: max_frame too small for any frame";
  {
    max_frame;
    buf = Bytes.create 4096;
    start = 0;
    len = 0;
    scanned = 0;
    failed = None;
    fields = fields ();
  }

let feed d src pos n =
  if pos < 0 || n < 0 || pos + n > Bytes.length src then
    invalid_arg "Frame.feed: bad substring";
  if d.failed = None then begin
    let need = d.len + n in
    if d.start + need > Bytes.length d.buf then begin
      let cap = max need (2 * Bytes.length d.buf) in
      let nb = Bytes.create cap in
      Bytes.blit d.buf d.start nb 0 d.len;
      d.buf <- nb;
      d.start <- 0
    end;
    Bytes.blit src pos d.buf (d.start + d.len) n;
    d.len <- need
  end

let feed_string d s = feed d (Bytes.of_string s) 0 (String.length s)

let fail d msg =
  d.failed <- Some msg;
  d.len <- 0;
  d.scanned <- 0;
  `Error msg

let consume d n =
  d.start <- d.start + n;
  d.len <- d.len - n;
  d.scanned <- 0;
  if d.len = 0 then d.start <- 0

(* Offset of '\n' in the buffered window, or -1 while incomplete.  The
   scan resumes where the previous call stopped, so a line that arrives
   in many reads is still inspected once per byte. *)
let find_newline d =
  let i = ref d.scanned in
  (* Eight bytes at a time while none of them is '\n': x has a zero byte
     exactly where the word has a '\n', and the test is nonzero iff x
     has one.  Worth ~85 ns of a ~200-byte predict line (DESIGN §5h). *)
  while
    !i + 8 <= d.len
    &&
    let x = Int64.logxor (Bytes.get_int64_le d.buf (d.start + !i)) 0x0A0A0A0A0A0A0A0AL in
    Int64.equal
      (Int64.logand (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x)) 0x8080808080808080L)
      0L
  do
    i := !i + 8
  done;
  while !i < d.len && not (Char.equal (Bytes.get d.buf (d.start + !i)) '\n') do
    incr i
  done;
  d.scanned <- !i;
  if !i < d.len then !i else -1

(* Decode the next complete frame of either framing, consuming it. *)
let next_with scan parse_binary d =
  match d.failed with
  | Some msg -> `Error msg
  | None ->
      if d.len = 0 then `Need_more
      else
        let first = Bytes.get d.buf d.start in
        if first = magic then
          if d.len < header_len then `Need_more
          else
            let plen = Int32.to_int (Bytes.get_int32_le d.buf (d.start + 1)) in
            if plen < 0 || header_len + plen > d.max_frame then
              fail d "binary frame length out of range"
            else if d.len < header_len + plen then `Need_more
            else begin
              let r = parse_binary d.buf (d.start + header_len) plen in
              consume d (header_len + plen);
              match r with
              | Result.Ok msg -> `Msg (msg, Binary_wire)
              | Result.Error e -> fail d e
            end
        else if first = '{' then begin
          let i = find_newline d in
          if i >= 0 then begin
            let r = scan d.fields d.buf d.start (d.start + i) in
            consume d (i + 1);
            match r with
            | Result.Ok msg -> `Msg (msg, Json_wire)
            | Result.Error e -> fail d e
          end
          else if d.len > d.max_frame then fail d "JSON line exceeds max frame size"
          else `Need_more
        end
        else fail d "unrecognised frame (expected '{' or 0xA7)"

let next_request d = next_with scan_request parse_binary_request d
let next_response d = next_with scan_response parse_binary_response d

let buffered d = d.len
