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

(* ------------------------------------------------------------------ *)
(* Numbers, written in place                                          *)
(* ------------------------------------------------------------------ *)

(* %.17g round-trips every float; JSON has no nan/inf literals.  The
   stub writes the digits in integer arithmetic for finite |f| in
   [1e-4, 1e17) and returns 0 for every other value, which then goes to
   caml_format_float (the primitive behind Printf's %g): the bytes are
   Printf's either way. *)
external put_g17 :
  bytes -> (int[@untagged]) -> (float[@unboxed]) -> (int[@untagged]) -> (int[@untagged])
  = "archpred_json_put_g17_byte" "archpred_json_put_g17"
[@@noalloc]

external format_float : string -> float -> string = "caml_format_float"

let float_room = 24

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_formatted b pos f = put_string b pos (format_float "%.17g" f)

let put_float ?(force_fallback = false) b pos f =
  if not (Float.is_finite f) then put_string b pos "null"
  else
    let n = put_g17 b pos f (Bool.to_int force_fallback) in
    if n > 0 then pos + n else put_formatted b pos f

(* string_of_int's digits, produced from the non-positive side so that
   min_int needs no special case. *)
let put_int b pos v =
  let m = if v < 0 then v else -v in
  let len = ref 1 in
  let t = ref (m / 10) in
  while !t <> 0 do
    incr len;
    t := !t / 10
  done;
  let start = if v < 0 then pos + 1 else pos in
  if v < 0 then Bytes.set b pos '-';
  let q = ref m in
  for k = start + !len - 1 downto start do
    Bytes.set b k (Char.chr (Char.code '0' - (!q mod 10)));
    q := !q / 10
  done;
  start + !len

let add_float buf f =
  let s = Bytes.create float_room in
  Buffer.add_subbytes buf s 0 (put_float s 0 f)

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

(* One call reads a number token: see json_stubs.c for the rule. *)
external number :
  bytes ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "archpred_json_number_byte" "archpred_json_number"
[@@noalloc]

let int_token = 0
let float_token = 1
let bad_token = 2
let ints_as_floats = 1
let fallback = 2

let[@inline] token_end r = r lsr 2
let[@inline] token_kind r = r land 3
let[@inline] int_value dst k = Int64.to_int (Int64.bits_of_float dst.(k))

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

(* [num] is a one-slot scratch for the number stub, [flags] its mode. *)
let parse_number num flags b n pos =
  let i = !pos in
  let r = number b i n num 0 flags in
  let j = token_end r in
  pos := j;
  let kind = token_kind r in
  if kind = int_token then Int (int_value num 0)
  else if kind = float_token then Float num.(0)
  else syntax_error j ("bad number " ^ Bytes.sub_string b i (j - i))

let rec parse_value num flags b n pos =
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
          let v = parse_value num flags b n pos in
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
          let v = parse_value num flags b n pos in
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
  | _ -> parse_number num flags b n pos

let value_at ?(force_fallback = false) b i n =
  let pos = ref i in
  let flags = if force_fallback then fallback else 0 in
  let v = parse_value (Array.make 1 0.) flags b n pos in
  (v, !pos)

let of_string ?force_fallback text =
  (* The lexers and the parser only read [b], so it can share [text]'s
     storage instead of copying the whole document. *)
  (* archpred-analyze: allow unsafe-index -- read-only view of [text], no index is unchecked *)
  let b = Bytes.unsafe_of_string text in
  let n = Bytes.length b in
  match
    let v, j = value_at ?force_fallback b 0 n in
    if skip_ws b j n <> n then syntax_error (skip_ws b j n) "trailing input";
    v
  with
  | v -> Ok v
  | exception Syntax_error (at, msg) ->
      Result.Error (Printf.sprintf "character %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
