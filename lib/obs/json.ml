type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* %.17g round-trips every float; JSON has no nan/inf literals.  The
   stub computes the digits in integer arithmetic for finite |f| in
   [1e-4, 1e17) and hands every other value, with [fmt], to
   caml_format_float (the primitive behind Printf's %g): the bytes are
   Printf's either way. *)
external format_g17 : string -> (float[@unboxed]) -> string
  = "archpred_json_g17_byte" "archpred_json_g17"

let add_float buf f =
  Buffer.add_string buf (if Float.is_finite f then format_g17 "%.17g" f else "null")

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Lexers                                                             *)
(* ------------------------------------------------------------------ *)

(* Position-based scanners over a byte window ending at [n].  The
   parser below and the daemon's frame scanner both read JSON through
   them, so the number and string rules are written once. *)

exception Syntax_error of int * string

let syntax_error at msg = raise (Syntax_error (at, msg))

let skip_ws b i n =
  let i = ref i in
  while
    !i < n
    && match Bytes.get b !i with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    incr i
  done;
  !i

let number_end b i n =
  let i = ref i in
  while
    !i < n
    &&
    match Bytes.get b !i with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    incr i
  done;
  !i

(* min_int = 10 * int_lim - 4 *)
let int_lim = min_int / 10

(* Minus the magnitude of the token b.[i..j) as [int_of_string] reads a
   number token (an optional sign, then decimal digits only, within
   [min_int, max_int]), or 1 when [int_of_string] rejects it. *)
let neg_magnitude b i j =
  let neg = i < j && Bytes.get b i = '-' in
  let k = if neg || (i < j && Bytes.get b i = '+') then i + 1 else i in
  if k >= j then 1
  else begin
    let acc = ref 0 in
    let p = ref k in
    while !p < j do
      let d = Char.code (Bytes.get b !p) - Char.code '0' in
      if d < 0 || d > 9 || !acc < int_lim || (!acc = int_lim && d > 4) then begin
        acc := 1;
        p := j
      end
      else begin
        acc := (10 * !acc) - d;
        incr p
      end
    done;
    if !acc = min_int && not neg then 1 else !acc
  end

let is_int_token b i j = neg_magnitude b i j <= 0

let int_of_token b i j =
  let m = neg_magnitude b i j in
  if i < j && Bytes.get b i = '-' then m else -m

external float_of_token : bytes -> (int[@untagged]) -> (int[@untagged]) -> (float[@unboxed])
  = "archpred_json_strtod_byte" "archpred_json_strtod"
[@@noalloc]

(* [b.[lo..hi)] = [s] *)
let bytes_equal b lo hi s =
  hi - lo = String.length s
  &&
  let i = ref 0 in
  while !i < hi - lo && Char.equal (Bytes.get b (lo + !i)) s.[!i] do
    incr i
  done;
  !i = hi - lo

let plain_string_end b i n =
  if i >= n || Bytes.get b i <> '"' then -1
  else begin
    let p = ref (i + 1) in
    let r = ref (-2) in
    while !r = -2 do
      if !p >= n then r := -1
      else
        match Bytes.get b !p with
        | '"' -> r := !p
        | '\\' -> r := -1
        | c -> if Char.code c < 0x20 then r := -1 else incr p
    done;
    !r
  end

let lex_string buf b i n =
  if i >= n || Bytes.get b i <> '"' then syntax_error i "expected \"";
  let e = plain_string_end b i n in
  if e >= 0 then begin
    Buffer.add_subbytes buf b (i + 1) (e - i - 1);
    e + 1
  end
  else begin
    let pos = ref (i + 1) in
    let stop = ref (-1) in
    while !stop < 0 do
      if !pos >= n then syntax_error !pos "unterminated string";
      let c = Bytes.get b !pos in
      incr pos;
      match c with
      | '"' -> stop := !pos
      | '\\' -> (
          if !pos >= n then syntax_error !pos "unterminated escape";
          let e = Bytes.get b !pos in
          incr pos;
          match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' -> (
              if !pos + 4 > n then syntax_error !pos "bad \\u escape";
              let hex = Bytes.sub_string b !pos 4 in
              pos := !pos + 4;
              match int_of_string_opt ("0x" ^ hex) with
              | None -> syntax_error !pos "bad \\u escape"
              | Some code ->
                  (* Enough for the control characters we emit. *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else Buffer.add_string buf ("\\u" ^ hex))
          | _ -> syntax_error !pos "bad escape")
      | c when Char.code c < 0x20 -> syntax_error !pos "control character in string"
      | c -> Buffer.add_char buf c
    done;
    !stop
  end

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

(* Recursive descent over the lexers.  Covers the JSON this library
   emits (and standard JSON generally) without external deps. *)

let expect b n pos c =
  if !pos < n && Bytes.get b !pos = c then incr pos
  else syntax_error !pos (Printf.sprintf "expected %c" c)

let literal b n pos word value =
  let l = String.length word in
  if !pos + l <= n && bytes_equal b !pos (!pos + l) word then begin
    pos := !pos + l;
    value
  end
  else syntax_error !pos ("expected " ^ word)

let parse_string b n pos =
  let buf = Buffer.create 16 in
  pos := lex_string buf b !pos n;
  Buffer.contents buf

let parse_number b n pos =
  let i = !pos in
  let j = number_end b i n in
  pos := j;
  if is_int_token b i j then Int (int_of_token b i j)
  else
    let f = float_of_token b i j in
    if Float.is_nan f then syntax_error j ("bad number " ^ Bytes.sub_string b i (j - i))
    else Float f

let rec parse_value b n pos =
  pos := skip_ws b !pos n;
  if !pos >= n then syntax_error !pos "unexpected end of input";
  match Bytes.get b !pos with
  | '"' -> String (parse_string b n pos)
  | 't' -> literal b n pos "true" (Bool true)
  | 'f' -> literal b n pos "false" (Bool false)
  | 'n' -> literal b n pos "null" Null
  | '{' ->
      incr pos;
      pos := skip_ws b !pos n;
      if !pos < n && Bytes.get b !pos = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          pos := skip_ws b !pos n;
          let k = parse_string b n pos in
          pos := skip_ws b !pos n;
          expect b n pos ':';
          let v = parse_value b n pos in
          pos := skip_ws b !pos n;
          if !pos < n && Bytes.get b !pos = ',' then begin
            incr pos;
            fields ((k, v) :: acc)
          end
          else if !pos < n && Bytes.get b !pos = '}' then begin
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          end
          else syntax_error !pos "expected , or }"
        in
        fields []
  | '[' ->
      incr pos;
      pos := skip_ws b !pos n;
      if !pos < n && Bytes.get b !pos = ']' then begin
        incr pos;
        List []
      end
      else
        let rec items acc =
          let v = parse_value b n pos in
          pos := skip_ws b !pos n;
          if !pos < n && Bytes.get b !pos = ',' then begin
            incr pos;
            items (v :: acc)
          end
          else if !pos < n && Bytes.get b !pos = ']' then begin
            incr pos;
            List (List.rev (v :: acc))
          end
          else syntax_error !pos "expected , or ]"
        in
        items []
  | _ -> parse_number b n pos

let value_at b i n =
  let pos = ref i in
  let v = parse_value b n pos in
  (v, !pos)

let of_string text =
  (* The lexers and the parser only read [b], so it can share [text]'s
     storage instead of copying the whole document. *)
  (* archpred-lint: allow unsafe-index -- read-only view of [text], no index is unchecked *)
  let b = Bytes.unsafe_of_string text in
  let n = Bytes.length b in
  match
    let v, j = value_at b 0 n in
    if skip_ws b j n <> n then syntax_error (skip_ws b j n) "trailing input";
    v
  with
  | v -> Ok v
  | exception Syntax_error (at, msg) ->
      Result.Error (Printf.sprintf "character %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
