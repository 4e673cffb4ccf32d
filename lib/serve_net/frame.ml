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

(* Each predict-frame shape has one encoder, a writer into a byte buffer
   at a position that returns the end of what it wrote.  The client writes
   requests and the daemon writes replies with them straight into their
   connection buffers; [encode_*] and [add_request] are wrappers over
   them.
   JSON predict frames are written as text directly, without building a
   [Json.t]; the bytes are those [Json.to_string] gives for the equivalent
   object (test_served pins that).  Control messages (reload requests and
   their replies) are rare and go through [Json.to_string].  The writers
   are allocation-free (enforced by tools/analyze/hotpaths.sexp). *)

(* 54 bytes of keys and brackets with a 20-byte id, then a comma and at
   most 24 bytes per coordinate *)
let request_room wire dim =
  match wire with
  | Binary_wire -> header_len + 7 + (8 * dim)
  | Json_wire -> 64 + ((Json.float_room + 1) * dim)

let put_binary_request b pos ~id ~natural point =
  if id < 0 || id > 0xFFFF_FFFF then
    invalid_arg "Frame.put_request: binary id outside [0, 2^32)";
  let dim = Array.length point in
  let payload = 7 + (8 * dim) in
  Bytes.set b pos magic;
  Bytes.set_int32_le b (pos + 1) (Int32.of_int payload);
  Bytes.set_int32_le b (pos + 5) (Int32.of_int id);
  Bytes.set_uint8 b (pos + 9) (if natural then 1 else 0);
  Bytes.set_uint16_le b (pos + 10) dim;
  for i = 0 to dim - 1 do
    Bytes.set_int64_le b (pos + 12 + (8 * i)) (Int64.bits_of_float point.(i))
  done;
  pos + header_len + payload

let put_json_request b pos ~id ~natural point =
  let p = Json.put_int b (Json.put_string b pos "{\"id\":") id in
  let p = ref (Json.put_string b p ",\"point\":[") in
  for i = 0 to Array.length point - 1 do
    if i > 0 then begin
      Bytes.set b !p ',';
      incr p
    end;
    p := Json.put_float b !p point.(i)
  done;
  Json.put_string b !p (if natural then "],\"natural\":true}\n" else "]}\n")

let put_request b pos wire ~id ~natural point =
  match wire with
  | Json_wire -> put_json_request b pos ~id ~natural point
  | Binary_wire -> put_binary_request b pos ~id ~natural point

let reply_len = header_len + 13

let[@inline] put_binary_reply b pos ~id ~status value =
  Bytes.set b pos magic;
  Bytes.set_int32_le b (pos + 1) 13l;
  Bytes.set_int32_le b (pos + 5) (Int32.of_int id);
  Bytes.set_uint8 b (pos + 9) (status_code status);
  Bytes.set_int64_le b (pos + 10) (Int64.bits_of_float value)

(* 86 bytes at most: a 20-byte id, "shutting_down", a 24-byte value *)
let json_reply_room = 96

let put_json_reply b pos ~id ~status value =
  let p = Json.put_int b (Json.put_string b pos "{\"id\":") id in
  let p = Json.put_string b (Json.put_string b p ",\"status\":\"") (status_name status) in
  match status with
  | Ok -> Json.put_string b (Json.put_float b (Json.put_string b p "\",\"value\":") value) "}\n"
  | Overloaded | Timeout | Bad_request | Shutting_down -> Json.put_string b p "\"}\n"

let json_control fields = Json.to_string (Json.Obj fields) ^ "\n"

let encode_request wire req =
  match (wire, req) with
  | _, Predict { id; point; natural } ->
      let b = Bytes.create (request_room wire (Array.length point)) in
      Bytes.sub_string b 0 (put_request b 0 wire ~id ~natural point)
  | Json_wire, Reload path ->
      json_control
        (("cmd", Json.String "reload")
        :: (match path with Some p -> [ ("path", Json.String p) ] | None -> []))
  | Binary_wire, Reload _ ->
      invalid_arg "Frame.encode_request: reload is a JSON-only control message"

let encode_response wire resp =
  match (wire, resp) with
  | Json_wire, Reply { id; status; value } ->
      let b = Bytes.create json_reply_room in
      Bytes.sub_string b 0 (put_json_reply b 0 ~id ~status value)
  | Binary_wire, Reply { id; status; value } ->
      let b = Bytes.create reply_len in
      put_binary_reply b 0 ~id ~status value;
      Bytes.to_string b
  | Json_wire, Reload_reply { ok; detail } ->
      json_control
        [ ("reload", Json.String (if ok then "ok" else "failed")); ("detail", Json.String detail) ]
  | Binary_wire, Reload_reply _ ->
      invalid_arg "Frame.encode_response: reload replies are JSON-only"

let add_request b wire req = Buffer.add_string b (encode_request wire req)

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
  mutable slow_bits : int;  (* bit k: [slow.(k)] is this frame's *)
  flags : int;  (* Json.number flags: 0, or Json.fallback in tests *)
  num : float array;  (* one slot: an "id" read by Json.number *)
}

let fields ~force_fallback =
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
    slow_bits = 0;
    flags = (if force_fallback then Json.fallback else 0);
    num = Array.make 1 0.;
  }

let reset_fields f =
  if Array.length f.coords = 0 then f.coords <- Array.make (max_dim + 1) 0.;
  f.seen <- 0;
  f.id_ok <- false;
  f.n <- 0;
  f.coords_ok <- false;
  f.status <- -1;
  f.slow_bits <- 0

let syntax at msg = raise (Json.Syntax_error (at, msg))

(* [Json.skip_ws], without the call when [b.[i]] is not whitespace, as in
   the compact JSON every encoder here writes. *)
let[@inline] ws b i n = if i < n && Char.code (Bytes.get b i) > 0x20 then i else Json.skip_ws b i n

(* Index of the name in [names] that the string at [i] holds, unescaped
   (the names hold no quote, backslash or control byte), or -1. *)
let quoted_code names b i hi =
  let k = ref 0 in
  while
    !k < Array.length names
    &&
    let e = i + 1 + String.length names.(!k) in
    not
      (e < hi
      && Char.equal (Bytes.get b e) '"'
      && Char.equal (Bytes.get b i) '"'
      && Json.bytes_equal b (i + 1) e names.(!k))
  do
    incr k
  done;
  if !k < Array.length names then !k else -1

(* Whether the value at [i] is read by [Json]'s number lexer. *)
let number_start b i n =
  i < n
  && match Bytes.get b i with '"' | 't' | 'f' | 'n' | '{' | '[' -> false | _ -> true

(* Store the number token at [i] as [Json.of_string] would read it into
   a coordinate: an int token through [float_of_int] (so [-0] is [+0.]),
   any other through [float_of_string].  Returns the index past the
   token, or -1 when it is not a number. *)
let scan_coord f b i n k =
  let r = Json.number b i n f.coords k (f.flags lor Json.ints_as_floats) in
  if Json.token_kind r = Json.bad_token then -1 else Json.token_end r

(* The list at [i] (b.[i] = '['), every element a number: read into
   [f.coords] (a count past max_dim reuses the spare last slot), and the
   index past ']' returned.  -1 when an element is not a number token;
   the caller then reads the value generically. *)
let scan_point f b i n =
  let cap = Array.length f.coords - 1 in
  let p = ref (ws b (i + 1) n) in
  let k = ref 0 in
  let r = ref (-2) in
  if !p < n && Char.equal (Bytes.get b !p) ']' then r := !p + 1;
  while !r = -2 do
    if not (number_start b !p n) then r := -1
    else begin
      let j = scan_coord f b !p n (if !k < cap then !k else cap) in
      if j < 0 then syntax !p "bad number";
      incr k;
      let e = ws b j n in
      if e < n && Char.equal (Bytes.get b e) ',' then p := ws b (e + 1) n
      else if e < n && Char.equal (Bytes.get b e) ']' then r := e + 1
      else syntax e "expected , or ]"
    end
  done;
  f.n <- !k;
  !r

let value_at f b v hi = Json.value_at ~force_fallback:(f.flags land Json.fallback <> 0) b v hi

let slow_field f b code v hi =
  let value, e = value_at f b v hi in
  f.slow.(code) <- Some value;
  f.slow_bits <- f.slow_bits lor (1 lsl code);
  e

let id_field f b v hi =
  let r = Json.number b v hi f.num 0 f.flags in
  let kind = Json.token_kind r in
  if kind = Json.int_token then begin
    f.id <- Json.int_value f.num 0;
    f.id_ok <- true
  end
  else if kind = Json.bad_token then syntax (Json.token_end r) "bad number";
  Json.token_end r

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
    let j = scan_coord f b v hi 0 in
    if j < 0 then syntax v "bad number";
    f.coords_ok <- true;
    j
  end
  else begin
    let s = if code = k_status then quoted_code status_names b v hi else -1 in
    if s >= 0 then begin
      f.status <- s;
      v + String.length status_names.(s) + 2
    end
    else slow_field f b code v hi
  end

(* Read the key at [i] into [f.key]; returns the index past its quote.
   A string no name matches in its raw bytes is a known key only when
   escapes spell one. *)
let read_key f names b i hi =
  f.key <- quoted_code names b i hi;
  if f.key >= 0 then i + String.length names.(f.key) + 2
  else
    let e = Json.plain_string_end b i hi in
    if e >= 0 then e + 1
    else begin
      let buf = Buffer.create 16 in
      let e = Json.lex_string buf b i hi in
      let key = Buffer.contents buf in
      Array.iteri (fun k name -> if String.equal key name then f.key <- k) names;
      e
    end

(* Scan the object b.[lo..hi) (b.[lo] = '{', nothing but whitespace may
   follow it): the first value of each key in [names] goes to [field],
   every other value is only checked.  Raises [Json.Syntax_error]. *)
let scan_object f b lo hi names field =
  reset_fields f;
  let i = ref (ws b (lo + 1) hi) in
  if !i < hi && Char.equal (Bytes.get b !i) '}' then incr i
  else begin
    let more = ref true in
    while !more do
      let c = ws b (read_key f names b (ws b !i hi) hi) hi in
      if c >= hi || not (Char.equal (Bytes.get b c) ':') then syntax c "expected :";
      let v = ws b (c + 1) hi in
      let code = f.key in
      let ve =
        if code < 0 || f.seen land (1 lsl code) <> 0 then snd (value_at f b v hi)
        else begin
          f.seen <- f.seen lor (1 lsl code);
          field f b code v hi
        end
      in
      let e = ws b ve hi in
      if e < hi && Char.equal (Bytes.get b e) ',' then i := e + 1
      else if e < hi && Char.equal (Bytes.get b e) '}' then begin
        i := e + 1;
        more := false
      end
      else syntax e "expected , or }"
    done
  end;
  let t = ws b !i hi in
  if t <> hi then syntax t "trailing input"

(* The value of key [k] that went through [Json.value_at] in this frame. *)
let slow f k = if f.slow_bits land (1 lsl k) <> 0 then f.slow.(k) else None

(* A "point" the fast path did not take is never a list of numbers (its
   first non-number element made the scan bail), so it is an error, as
   is a non-int "id"; their values were only checked. *)
let request_of_fields f =
  match slow f k_cmd with
  | Some (Json.String "reload") ->
      let path =
        match slow f k_path with Some (Json.String p) -> Some p | _ -> None
      in
      Result.Ok (Reload path)
  | Some _ -> Result.Error "unknown cmd"
  | None ->
      let natural =
        match slow f k_natural with Some (Json.Bool b) -> b | _ -> false
      in
      if not (f.id_ok && f.coords_ok) then
        Result.Error "request needs an int \"id\" and a \"point\" list of numbers"
      else if f.n > max_dim then Result.Error "point too wide"
      else Result.Ok (Predict { id = f.id; point = Array.sub f.coords 0 f.n; natural })

let reply_of f status =
  let value = if f.coords_ok then f.coords.(0) else Float.nan in
  Result.Ok (Reply { id = f.id; status; value })

let response_of_fields f =
  match slow f k_reload with
  | Some (Json.String outcome) ->
      let detail =
        match slow f k_detail with Some (Json.String s) -> s | _ -> ""
      in
      Result.Ok (Reload_reply { ok = String.equal outcome "ok"; detail })
  | Some _ -> Result.Error "bad reload reply"
  | None -> (
      match slow f k_status with
      | _ when not f.id_ok -> Result.Error "response needs \"id\" and \"status\""
      | _ when f.status >= 0 -> reply_of f statuses.(f.status)
      | Some (Json.String s) -> (
          match status_of_name s with
          | None -> Result.Error ("unknown status " ^ s)
          | Some status -> reply_of f status)
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

let decoder ?(max_frame = default_max_frame) ?(force_fallback = false) () =
  if max_frame < header_len + 13 then
    invalid_arg "Frame.decoder: max_frame too small for any frame";
  {
    max_frame;
    buf = Bytes.create 4096;
    start = 0;
    len = 0;
    scanned = 0;
    failed = None;
    fields = fields ~force_fallback;
  }

let feed d src pos n =
  if pos < 0 || n < 0 || pos + n > Bytes.length src then
    invalid_arg "Frame.feed: bad substring";
  if d.failed = None then begin
    let need = d.len + n in
    if d.start + need > Bytes.length d.buf then begin
      (* slide the unconsumed bytes to the front when that makes room,
         else double: a buffer that only ever doubled would grow with
         the total fed, not with the largest window *)
      let cap = Bytes.length d.buf in
      let nb = if need <= cap then d.buf else Bytes.create (max need (2 * cap)) in
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

external newline : bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "archpred_frame_newline_byte" "archpred_frame_newline"
[@@noalloc]

(* Offset of '\n' in the buffered window, or -1 while incomplete.  The
   search (memchr, frame_stubs.c) resumes where the previous call
   stopped, so a line that arrives in many reads is still inspected once
   per byte. *)
let find_newline d =
  let r = newline d.buf (d.start + d.scanned) (d.start + d.len) in
  d.scanned <- (if r < 0 then d.len else r - d.start);
  if r < 0 then -1 else r - d.start

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
