(* The prediction daemon: codec round-trips and fuzz, then the live
   daemon driven over real sockets from a client in the main domain —
   including the PR-3-style deterministic fault matrix over the four
   serve-path injection sites.

   The daemon runs in its own domain; every scenario ends with a drain
   and joins the domain, so a crash in the event loop surfaces as a
   test failure here, not a leak. *)

module Design = Archpred_design
module Stats = Archpred_stats
module Rbf = Archpred_rbf
module Core = Archpred_core
module Obs = Archpred_obs
module Fault = Archpred_fault.Fault
module Frame = Archpred_serve_net.Frame
module Daemon = Archpred_serve_net.Daemon
module Client = Archpred_serve_net.Client

let bits = Int64.bits_of_float

(* ---------------------------------------------------------------- *)
(* Fixtures                                                         *)
(* ---------------------------------------------------------------- *)

let tiny_predictor ?(seed = 41) () =
  let dim = 9 in
  let rng = Stats.Rng.create seed in
  let centers =
    Array.init 6 (fun _ ->
        {
          Rbf.Network.c = Array.init dim (fun _ -> Stats.Rng.unit_float rng);
          r = Array.init dim (fun _ -> 0.3 +. Stats.Rng.unit_float rng);
        })
  in
  let weights = Array.init 6 (fun _ -> Stats.Rng.unit_float rng -. 0.5) in
  let network = { Rbf.Network.centers; weights } in
  Core.Predictor.make ~space:Core.Paper_space.space ~network ~p_min:1
    ~alpha:7. ()

let space = Core.Paper_space.space
let dim = Design.Space.dimension space

let grid_points ~seed n =
  let rng = Stats.Rng.create seed in
  Array.init n (fun _ ->
      Design.Space.snap space ~sample_size:90
        (Array.init dim (fun _ -> Stats.Rng.unit_float rng)))

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "archpred_t%d_%d.sock" (Unix.getpid ()) !sock_counter)

let start_daemon ?(tweak = fun c -> c) ?obs predictor =
  let sock = fresh_sock () in
  let control = Daemon.control () in
  let cfg =
    tweak
      {
        Daemon.default with
        Daemon.listener = Daemon.Unix_socket sock;
        tick_s = 0.002;
      }
  in
  let dom =
    Domain.spawn (fun () -> Daemon.run ?obs ~control ~predictor cfg)
  in
  (sock, control, dom)

let stop_daemon control dom =
  Daemon.request_drain control;
  Domain.join dom

(* ---------------------------------------------------------------- *)
(* Codec: round-trips                                               *)
(* ---------------------------------------------------------------- *)

let request_equal a b =
  match (a, b) with
  | ( Frame.Predict { id = i1; point = p1; natural = n1 },
      Frame.Predict { id = i2; point = p2; natural = n2 } ) ->
      i1 = i2 && n1 = n2
      && Array.length p1 = Array.length p2
      && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) p1 p2
  | Frame.Reload a, Frame.Reload b -> a = b
  | _ -> false

let decode_all_requests chunks =
  let d = Frame.decoder () in
  let out = ref [] in
  let step () =
    let continue = ref true in
    while !continue do
      match Frame.next_request d with
      | `Msg (m, w) -> out := (m, w) :: !out
      | `Need_more -> continue := false
      | `Error e -> Alcotest.failf "unexpected protocol error: %s" e
    done
  in
  List.iter
    (fun c ->
      Frame.feed_string d c;
      step ())
    chunks;
  List.rev !out

let test_roundtrip_both_wires () =
  let reqs =
    [
      Frame.Predict { id = 0; point = [| 0.5; 0.25 |]; natural = false };
      Frame.Predict { id = 77; point = Array.init 9 float_of_int; natural = true };
      Frame.Reload (Some "m.model");
      Frame.Reload None;
      Frame.Predict { id = 3; point = [||]; natural = false };
    ]
  in
  List.iter
    (fun req ->
      let wires =
        match req with
        | Frame.Reload _ -> [ Frame.Json_wire ]
        | Frame.Predict _ -> [ Frame.Json_wire; Frame.Binary_wire ]
      in
      List.iter
        (fun wire ->
          let s = Frame.encode_request wire req in
          match decode_all_requests [ s ] with
          | [ (got, w) ] ->
              Alcotest.(check bool) "wire preserved" true (w = wire);
              Alcotest.(check bool) "request round-trips" true
                (request_equal req got)
          | l -> Alcotest.failf "expected 1 message, got %d" (List.length l))
        wires)
    reqs

let test_response_roundtrip () =
  let resps =
    [
      Frame.Reply { id = 5; status = Frame.Ok; value = 1.25 };
      Frame.Reply { id = 0; status = Frame.Overloaded; value = Float.nan };
      Frame.Reply { id = 9; status = Frame.Timeout; value = Float.nan };
      Frame.Reply { id = 2; status = Frame.Bad_request; value = Float.nan };
      Frame.Reply { id = 1; status = Frame.Shutting_down; value = Float.nan };
      Frame.Reload_reply { ok = true; detail = "m.model" };
      Frame.Reload_reply { ok = false; detail = "checksum" };
    ]
  in
  List.iter
    (fun resp ->
      let wires =
        match resp with
        | Frame.Reload_reply _ -> [ Frame.Json_wire ]
        | Frame.Reply _ -> [ Frame.Json_wire; Frame.Binary_wire ]
      in
      List.iter
        (fun wire ->
          let d = Frame.decoder () in
          Frame.feed_string d (Frame.encode_response wire resp);
          match Frame.next_response d with
          | `Msg (got, _) -> (
              match (resp, got) with
              | ( Frame.Reply { id = i1; status = s1; value = v1 },
                  Frame.Reply { id = i2; status = s2; value = v2 } ) ->
                  Alcotest.(check int) "id" i1 i2;
                  Alcotest.(check bool) "status" true (s1 = s2);
                  if s1 = Frame.Ok then
                    Alcotest.(check bool) "value bits" true
                      (Int64.equal (bits v1) (bits v2))
              | ( Frame.Reload_reply { ok = o1; detail = d1 },
                  Frame.Reload_reply { ok = o2; detail = d2 } ) ->
                  Alcotest.(check bool) "ok" o1 o2;
                  Alcotest.(check string) "detail" d1 d2
              | _ -> Alcotest.fail "response kind changed in flight")
          | `Need_more -> Alcotest.fail "incomplete response"
          | `Error e -> Alcotest.failf "protocol error: %s" e)
        wires)
    resps

(* The JSON encoders write text directly; the bytes must be those of the
   equivalent Json tree, for any id and coordinates. *)
let qcheck_json_encoding_pinned =
  let module Json = Archpred_obs.Json in
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 10 in
      let* id = int_range (-5) 0xFFFFFF in
      let* natural = bool in
      let* coords = array_repeat n (oneof [ float; float_range (-2.) 2. ]) in
      let* st = oneofl [ Frame.Ok; Frame.Overloaded; Frame.Timeout; Frame.Bad_request; Frame.Shutting_down ] in
      return (id, natural, coords, st))
  in
  QCheck.Test.make ~name:"json encoding = Json tree" ~count:300 (QCheck.make gen)
    (fun (id, natural, point, status) ->
      let line fields = Json.to_string (Json.Obj fields) ^ "\n" in
      let req =
        line
          ([ ("id", Json.Int id); ("point", Json.List (Array.to_list (Array.map (fun v -> Json.Float v) point))) ]
          @ if natural then [ ("natural", Json.Bool true) ] else [])
      in
      let value = if Array.length point > 0 then point.(0) else 0.5 in
      let resp =
        line
          ([ ("id", Json.Int id); ("status", Json.String (Frame.status_name status)) ]
          @ if status = Frame.Ok then [ ("value", Json.Float value) ] else [])
      in
      String.equal req (Frame.encode_request Frame.Json_wire (Frame.Predict { id; point; natural }))
      && String.equal resp (Frame.encode_response Frame.Json_wire (Frame.Reply { id; status; value })))

(* ---------------------------------------------------------------- *)
(* Codec: the JSON frame scanner against the Json.t reference       *)
(* ---------------------------------------------------------------- *)

(* The reference: the whole line through [Json.of_string], then the
   first value of each key.  The frame scanner must agree on every
   input: the same message with bit-identical coordinates, or an error
   on both sides. *)
module Reference = struct
  module Json = Archpred_obs.Json

  let max_dim = 1024 (* Frame's widest point *)

  let number = function
    | Json.Float v -> Some v
    | Json.Int v -> Some (float_of_int v)
    | _ -> None

  let request line =
    match Json.of_string line with
    | Error _ -> None
    | Ok j -> (
        match Json.member "cmd" j with
        | Some (Json.String "reload") ->
            Some
              (Frame.Reload
                 (match Json.member "path" j with Some (Json.String p) -> Some p | _ -> None))
        | Some _ -> None
        | None -> (
            match (Json.member "id" j, Json.member "point" j) with
            | Some (Json.Int id), Some (Json.List vs) ->
                let natural =
                  match Json.member "natural" j with Some (Json.Bool b) -> b | _ -> false
                in
                let coords = List.filter_map number vs in
                if List.length coords <> List.length vs || List.length coords > max_dim then None
                else Some (Frame.Predict { id; point = Array.of_list coords; natural })
            | _ -> None))

  let response line =
    match Json.of_string line with
    | Error _ -> None
    | Ok j -> (
        match Json.member "reload" j with
        | Some (Json.String outcome) ->
            let detail = match Json.member "detail" j with Some (Json.String s) -> s | _ -> "" in
            Some (Frame.Reload_reply { ok = outcome = "ok"; detail })
        | Some _ -> None
        | None -> (
            match (Json.member "id" j, Json.member "status" j) with
            | Some (Json.Int id), Some (Json.String s) ->
                Option.map
                  (fun status ->
                    let value =
                      match Option.bind (Json.member "value" j) number with
                      | Some v -> v
                      | None -> Float.nan
                    in
                    Frame.Reply { id; status; value })
                  (Frame.status_of_name s)
            | _ -> None))
end

let response_equal a b =
  match (a, b) with
  | Frame.Reply { id = i1; status = s1; value = v1 }, Frame.Reply { id = i2; status = s2; value = v2 } ->
      i1 = i2 && s1 = s2 && Int64.equal (bits v1) (bits v2)
  | Frame.Reload_reply { ok = o1; detail = d1 }, Frame.Reload_reply { ok = o2; detail = d2 } ->
      o1 = o2 && String.equal d1 d2
  | _ -> false

(* Decode one line (no '\n' inside) as the daemon or the client would;
   [force_fallback] parses its floats with strtod instead. *)
let scan_line ?force_fallback next line =
  let d = Frame.decoder ?force_fallback () in
  Frame.feed_string d (line ^ "\n");
  match next d with
  | `Msg (m, Frame.Json_wire) -> Some m
  | `Msg (_, Frame.Binary_wire) -> Alcotest.fail "JSON line decoded as binary"
  | `Error _ -> None
  | `Need_more -> Alcotest.failf "complete line asked for more: %S" line

let agrees equal reference decoded =
  match (reference, decoded) with
  | Some a, Some b -> equal a b
  | None, None -> true
  | _ -> false

let request_agrees ?force_fallback line =
  agrees request_equal (Reference.request line) (scan_line ?force_fallback Frame.next_request line)

let response_agrees ?force_fallback line =
  agrees response_equal (Reference.response line) (scan_line ?force_fallback Frame.next_response line)

(* Frames built from canonical pieces, then mutated: whitespace,
   reordered, duplicate and unknown keys, escaped key names, odd number
   tokens, and byte-level damage.  Lines keep their leading '{' and hold
   no '\n', so framing is not what is under test. *)
module Mutate = struct
  open QCheck.Gen

  let ws = frequency [ (6, return ""); (1, oneofl [ " "; "\t"; "\r"; " \t " ]) ]

  let odd_numbers =
    [ "-0"; "1E-3"; "12345678901234567890"; "4611686018427387904"; "4611686018427387903";
      "-4611686018427387904"; "-4611686018427387905"; "1e"; "1.2.3"; "+1"; "--1"; "0"; "-0.0";
      ".5"; "5."; "1e400"; "007"; "-"; "" ]

  let number =
    frequency
      [
        (8, map (Printf.sprintf "%.17g") (float_range (-2.) 2.));
        (2, map (Printf.sprintf "%.17g") float);
        (2, map string_of_int small_signed_int);
        (1, oneofl odd_numbers);
      ]

  (* A key as written: raw, or with one character as a \u escape. *)
  let key k =
    frequency
      [
        (5, return k);
        ( 1,
          let* j = int_range 0 (String.length k - 1) in
          return
            (String.sub k 0 j
            ^ Printf.sprintf "\\u%04x" (Char.code k.[j])
            ^ String.sub k (j + 1) (String.length k - j - 1)) );
      ]

  (* Non-number values: mostly valid JSON, some malformed. *)
  let other =
    frequency
      [
        ( 6,
          oneofl
            [ "{\"a\":[1,2,{\"b\":null}]}"; "\"s\\\"q\""; "[]"; "-3.5e2"; "true"; "false"; "null";
              "\"\\u0041\\n\""; "{}" ] );
        (1, oneofl [ "[1,"; "{\"a\"}"; "tru"; "\"unterminated"; "\"\\x\"" ]);
      ]

  let point =
    let elem = frequency [ (30, number); (1, other) ] in
    frequency
      [
        ( 20,
          let* n = int_range 0 10 in
          let* xs = list_repeat n elem in
          let* sep = map2 (fun a b -> a ^ "," ^ b) ws ws in
          let* l = ws in
          return ("[" ^ l ^ String.concat sep xs ^ "]") );
        (1, other);
        (1, number);
      ]

  let id = frequency [ (20, map string_of_int (int_range 0 100_000)); (2, number); (1, other) ]

  let render fields =
    let* fields = shuffle_l fields in
    let* parts =
      flatten_l
        (List.map
           (fun (k, v) ->
             let* k = key k in
             let* a = ws in
             let* b = ws in
             return ("\"" ^ k ^ "\"" ^ a ^ ":" ^ b ^ v))
           fields)
    in
    let* sep = map2 (fun a b -> a ^ "," ^ b) ws ws in
    let* a = ws in
    let* b = ws in
    return ("{" ^ a ^ String.concat sep parts ^ b ^ "}")

  (* A second value for some key already present: the first must win. *)
  let with_extras fields pool =
    let* unknown = list_size (int_range 0 2) (pair (oneofl [ "x"; "Id"; "points"; "extra" ]) other) in
    let* dup = frequency [ (3, return []); (1, map (fun (k, _) -> [ k ]) (oneofl fields)) ] in
    let* dups = flatten_l (List.map (fun k -> map (fun v -> (k, v)) pool) dup) in
    return (fields @ unknown @ dups)

  (* Byte-level damage, never touching the leading '{'. *)
  let damage line =
    let n = String.length line in
    if n < 2 then return line
    else
      frequency
        [
          (9, return line);
          (1, map (fun k -> String.sub line 0 k) (int_range 1 (n - 1)));
          ( 1,
            let* k = int_range 1 (n - 1) in
            return (String.sub line 0 k ^ String.sub line (k + 1) (n - k - 1)) );
          ( 1,
            let* k = int_range 1 n in
            let* c = oneofl [ "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "0"; "e"; "-"; "."; "x"; " " ] in
            return (String.sub line 0 k ^ c ^ String.sub line k (n - k)) );
        ]

  let request =
    let predict =
      let* id_v = id in
      let* point_v = point in
      let* natural = frequency [ (3, return []); (1, map (fun v -> [ ("natural", v) ]) (oneofl [ "true"; "false"; "1"; "null" ])) ] in
      let base = [ ("id", id_v); ("point", point_v) ] @ natural in
      with_extras base (frequency [ (2, number); (1, point); (1, other) ])
    in
    let reload =
      let* cmd = oneofl [ "\"reload\""; "\"stats\""; "1"; "null"; "\"rel\\u006fad\"" ] in
      let* path = frequency [ (1, return []); (2, map (fun p -> [ ("path", p) ]) (oneofl [ "\"m.model\""; "3"; "\"a\\nb\"" ])) ] in
      let* predict = frequency [ (3, return []); (1, predict) ] in
      with_extras (("cmd", cmd) :: (path @ predict)) other
    in
    let* fields = frequency [ (5, predict); (1, reload) ] in
    render fields >>= damage

  let response =
    let reply =
      let* id_v = id in
      let* status =
        oneofl [ "\"ok\""; "\"overloaded\""; "\"timeout\""; "\"bad_request\""; "\"shutting_down\""; "\"nope\""; "\"o\\u006b\""; "3" ]
      in
      let* value = frequency [ (1, return []); (4, map (fun v -> [ ("value", v) ]) (frequency [ (5, number); (1, other) ])) ] in
      with_extras ([ ("id", id_v); ("status", status) ] @ value) (frequency [ (2, number); (1, other) ])
    in
    let reload =
      let* outcome = oneofl [ "\"ok\""; "\"failed\""; "1"; "\"\\u006fk\"" ] in
      let* detail = oneofl [ []; [ ("detail", "\"checksum\"") ]; [ ("detail", "null") ] ] in
      with_extras (("reload", outcome) :: detail) other
    in
    let* fields = frequency [ (5, reply); (1, reload) ] in
    render fields >>= damage
end

let qcheck_request_scanner =
  QCheck.Test.make ~name:"json request scanner = Json.of_string reference" ~count:3000
    (QCheck.make ~print:Fun.id Mutate.request) request_agrees

let qcheck_response_scanner =
  QCheck.Test.make ~name:"json response scanner = Json.of_string reference" ~count:3000
    (QCheck.make ~print:Fun.id Mutate.response) response_agrees

(* The same, with the scanner's floats parsed by strtod and the
   reference's by the integer path. *)
let qcheck_request_scanner_fallback =
  QCheck.Test.make ~name:"strtod-path request scanner = Json.of_string reference" ~count:3000
    (QCheck.make ~print:Fun.id Mutate.request) (request_agrees ~force_fallback:true)

let qcheck_response_scanner_fallback =
  QCheck.Test.make ~name:"strtod-path response scanner = Json.of_string reference" ~count:3000
    (QCheck.make ~print:Fun.id Mutate.response) (response_agrees ~force_fallback:true)

(* Canonical frames cut at every byte: each prefix (closed by '\n') is an
   error on both sides, or the same message. *)
let test_scanner_truncation () =
  let requests =
    [
      Frame.encode_request Frame.Json_wire (Frame.Predict { id = 12; point = [| 0.5; -0.; 1e-7; 3. |]; natural = true });
      Frame.encode_request Frame.Json_wire (Frame.Reload (Some "m.model"));
      "{ \"po\\u0069nt\" : [ 1 , -0 , 1E-3 ] , \"id\" : 4 , \"id\" : \"x\" }\n";
    ]
  in
  let responses =
    [
      Frame.encode_response Frame.Json_wire (Frame.Reply { id = 3; status = Frame.Ok; value = 0.1 });
      Frame.encode_response Frame.Json_wire (Frame.Reload_reply { ok = false; detail = "bad \"crc\"" });
      "{\"value\":null,\"status\":\"timeout\",\"id\":9,\"extra\":[{}]}\n";
    ]
  in
  let each agrees frames =
    List.iter
      (fun s ->
        let s = String.sub s 0 (String.index s '\n') in
        for cut = 1 to String.length s do
          let line = String.sub s 0 cut in
          if not (agrees line) then Alcotest.failf "scanner and reference disagree on %S" line
        done)
      frames
  in
  List.iter
    (fun force_fallback ->
      each (request_agrees ~force_fallback) requests;
      each (response_agrees ~force_fallback) responses)
    [ false; true ]

(* Binary ids are u32: the full range round-trips, anything else is
   refused by the encoder. *)
let test_binary_ids_u32 () =
  List.iter
    (fun id ->
      let req = Frame.Predict { id; point = [| 0.5 |]; natural = false } in
      (match decode_all_requests [ Frame.encode_request Frame.Binary_wire req ] with
      | [ (got, _) ] -> Alcotest.(check bool) (Printf.sprintf "request id %d" id) true (request_equal req got)
      | _ -> Alcotest.fail "expected one request");
      let d = Frame.decoder () in
      Frame.feed_string d (Frame.encode_response Frame.Binary_wire (Frame.Reply { id; status = Frame.Ok; value = 1. }));
      match Frame.next_response d with
      | `Msg (Frame.Reply r, _) -> Alcotest.(check int) "reply id" id r.id
      | _ -> Alcotest.fail "expected one reply")
    [ 0; (1 lsl 31) - 1; 1 lsl 31; (1 lsl 32) - 1 ];
  List.iter
    (fun id ->
      match Frame.encode_request Frame.Binary_wire (Frame.Predict { id; point = [||]; natural = false }) with
      | _ -> Alcotest.failf "binary id %d accepted" id
      | exception Invalid_argument _ -> ())
    [ -1; 1 lsl 32 ]

(* A line near max_frame fed in small chunks still decodes, and a
   newline that arrives on its own (or with the next line) is found. *)
(* A long stream whose reads end mid-frame: the decoder slides the
   unconsumed tail to the front of its buffer instead of growing it, so
   its buffer allocations (major-heap words, the buffer being larger
   than a minor block) stay far below the bytes fed.  A buffer that
   doubled whenever the tail reached its end grew with the stream. *)
let test_stream_buffer_bounded () =
  let line id =
    Frame.encode_request Frame.Json_wire
      (Frame.Predict { id; point = Array.make 9 0.123456789012345678; natural = false })
  in
  let stream = String.concat "" (List.init 20_000 line) in
  let chunk = 65_536 - 7 in
  let d = Frame.decoder () in
  let src = Bytes.of_string stream in
  let decoded = ref 0 in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let i = ref 0 in
  while !i < Bytes.length src do
    let n = min chunk (Bytes.length src - !i) in
    Frame.feed d src !i n;
    i := !i + n;
    let more = ref true in
    while !more do
      match Frame.next_request d with
      | `Msg _ -> incr decoded
      | `Need_more -> more := false
      | `Error e -> Alcotest.failf "stream decode: %s" e
    done
  done;
  let major_bytes = ((Gc.quick_stat ()).Gc.major_words -. major0) *. 8. in
  Alcotest.(check int) "every request decoded" 20_000 !decoded;
  if major_bytes > float_of_int (Bytes.length src) /. 4. then
    Alcotest.failf "decoder allocated %.0f major bytes for %d bytes fed" major_bytes (Bytes.length src)

let test_long_line_chunked () =
  let max_frame = 1 lsl 20 (* the decoder's default *) in
  let line =
    Frame.encode_request Frame.Json_wire
      (Frame.Predict { id = 1; point = Array.make 1024 0.123456789012345678; natural = false })
  in
  let pad = String.make (max_frame - String.length line - 64) ' ' in
  let long = String.sub line 0 (String.length line - 2) ^ pad ^ "}" in
  let second = Frame.encode_request Frame.Json_wire (Frame.Predict { id = 2; point = [| 0.5 |]; natural = false }) in
  let stream = long ^ "\n" ^ second in
  let sliced chunk =
    let chunks = ref [] in
    let i = ref 0 in
    while !i < String.length stream do
      let n = min chunk (String.length stream - !i) in
      chunks := String.sub stream !i n :: !chunks;
      i := !i + n
    done;
    List.rev !chunks
  in
  List.iter
    (fun (what, chunks) ->
      match decode_all_requests chunks with
      | [ (Frame.Predict a, _); (Frame.Predict b, _) ] ->
          Alcotest.(check (pair int int)) (what ^ ": ids") (1, 2) (a.id, b.id);
          Alcotest.(check int) (what ^ ": long point") 1024 (Array.length a.point)
      | l -> Alcotest.failf "%s: expected 2 requests, got %d" what (List.length l))
    [
      ("4 KiB chunks", sliced 4096);
      ("1000-byte chunks", sliced 1000);
      ("64-byte chunks", sliced 64);
      ("newline alone", [ long; "\n"; second ]);
      ("newline leads the next chunk", [ long; "\n" ^ second ]);
    ]

(* The in-place binary reply writer and the string encoder agree. *)
let test_put_binary_reply () =
  let b = Bytes.make (Frame.reply_len + 3) 'x' in
  Frame.put_binary_reply b 3 ~id:4242 ~status:Frame.Timeout 1.5;
  Alcotest.(check string) "same bytes"
    (Frame.encode_response Frame.Binary_wire (Frame.Reply { id = 4242; status = Frame.Timeout; value = 1.5 }))
    (Bytes.sub_string b 3 Frame.reply_len);
  Alcotest.(check string) "prefix untouched" "xxx" (Bytes.sub_string b 0 3)

(* The JSON writers at an offset, on the widest frames their room
   constants allow for: the bytes [encode_*] give, nothing else touched. *)
let test_put_json_in_place () =
  let widest = -2.2250738585072014e-308 in
  let check name room put encoded =
    let b = Bytes.make (room + 6) 'x' in
    let e = put b 3 in
    Alcotest.(check string) (name ^ ": same bytes") encoded (Bytes.sub_string b 3 (e - 3));
    Alcotest.(check bool) (name ^ ": within its room") true (e - 3 <= room);
    Alcotest.(check string) (name ^ ": rest untouched") ("xxx" ^ String.make (Bytes.length b - e) 'x')
      (Bytes.sub_string b 0 3 ^ Bytes.sub_string b e (Bytes.length b - e))
  in
  List.iter
    (fun (id, status, value) ->
      check "reply" Frame.json_reply_room
        (fun b pos -> Frame.put_json_reply b pos ~id ~status value)
        (Frame.encode_response Frame.Json_wire (Frame.Reply { id; status; value })))
    [ (min_int, Frame.Ok, widest); (min_int, Frame.Shutting_down, 0.); (7, Frame.Ok, Float.nan); (0, Frame.Timeout, 1.) ];
  List.iter
    (fun (wire, id, point, natural) ->
      check "request" (Frame.request_room wire (Array.length point))
        (fun b pos -> Frame.put_request b pos wire ~id ~natural point)
        (Frame.encode_request wire (Frame.Predict { id; point; natural })))
    [
      (Frame.Json_wire, min_int, [||], true);
      (Frame.Json_wire, min_int, Array.make 5 widest, true);
      (Frame.Json_wire, max_int, [| 0.5; Float.infinity; -0. |], false);
      (Frame.Binary_wire, 0xFFFF_FFFF, Array.make 3 widest, true);
    ]

(* QCheck: any request, any split of the byte stream, decodes back. *)
let qcheck_chunked_roundtrip =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 12 in
      let* id = int_range 0 0xFFFF in
      let* natural = bool in
      let* wire = oneofl [ Frame.Json_wire; Frame.Binary_wire ] in
      let* coords = array_repeat n (float_range (-2.) 2.) in
      let* cut = int_range 1 7 in
      return (id, natural, wire, coords, cut))
  in
  QCheck.Test.make ~name:"chunked request round-trip" ~count:300
    (QCheck.make gen) (fun (id, natural, wire, point, cut) ->
      let req = Frame.Predict { id; point; natural } in
      let s = Frame.encode_request wire req in
      (* slice the encoding into [cut]-byte chunks *)
      let chunks = ref [] in
      let i = ref 0 in
      while !i < String.length s do
        let len = min cut (String.length s - !i) in
        chunks := String.sub s !i len :: !chunks;
        i := !i + len
      done;
      match decode_all_requests (List.rev !chunks) with
      | [ (got, w) ] -> w = wire && request_equal req got
      | _ -> false)

(* ---------------------------------------------------------------- *)
(* Codec: truncation and corruption fuzz                            *)
(* ---------------------------------------------------------------- *)

(* Every proper prefix of a valid frame is just an incomplete frame:
   [`Need_more], never an exception, never a spurious message. *)
let test_every_prefix_truncation () =
  let frames =
    [
      Frame.encode_request Frame.Binary_wire
        (Frame.Predict { id = 12; point = [| 0.5; 0.75; 1.0 |]; natural = false });
      Frame.encode_request Frame.Json_wire
        (Frame.Predict { id = 3; point = [| 0.125 |]; natural = true });
    ]
  in
  List.iter
    (fun s ->
      for cut = 0 to String.length s - 1 do
        let d = Frame.decoder () in
        Frame.feed_string d (String.sub s 0 cut);
        match Frame.next_request d with
        | `Need_more -> ()
        | `Msg _ -> Alcotest.failf "message out of a %d-byte prefix" cut
        | `Error e -> Alcotest.failf "prefix %d: protocol error %s" cut e
      done)
    frames

(* Corrupting the length field must produce a per-connection protocol
   error (or an honest Need_more for a plausible shorter length), never
   an exception or a wrong message. *)
let test_corrupted_length () =
  let s =
    Frame.encode_request Frame.Binary_wire
      (Frame.Predict { id = 1; point = [| 0.5; 0.25 |]; natural = false })
  in
  for byte = 1 to 4 do
    for v = 0 to 255 do
      let b = Bytes.of_string s in
      Bytes.set b byte (Char.chr v);
      let d = Frame.decoder ~max_frame:4096 () in
      Frame.feed_string d (Bytes.to_string b);
      (* a corrupted frame may also desync the *next* frame; both
         decode attempts must stay total *)
      match Frame.next_request d with
      | `Error _ | `Need_more -> ()
      | `Msg (Frame.Predict { point; _ }, _) ->
          (* only the true length decodes back to the true payload *)
          if Array.length point <> 2 then ()
      | `Msg _ -> ()
    done
  done

(* Arbitrary garbage: the decoder must stay total on any byte soup. *)
let qcheck_garbage_total =
  let gen = QCheck.Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_range 0 64)) in
  QCheck.Test.make ~name:"garbage bytes never raise" ~count:500
    (QCheck.make gen) (fun junk ->
      let d = Frame.decoder ~max_frame:4096 () in
      Frame.feed_string d junk;
      let rec drain n =
        if n > 200 then true
        else
          match Frame.next_request d with
          | `Msg _ -> drain (n + 1)
          | `Need_more | `Error _ -> true
      in
      drain 0)

let test_oversized_frame_is_error () =
  let d = Frame.decoder ~max_frame:64 () in
  (* binary: length field larger than max_frame *)
  let b = Bytes.make 5 '\x00' in
  Bytes.set b 0 '\xa7';
  Bytes.set_int32_le b 1 1000l;
  Frame.feed_string d (Bytes.to_string b);
  (match Frame.next_request d with
  | `Error _ -> ()
  | _ -> Alcotest.fail "oversized binary frame accepted");
  (* JSON: unterminated line past max_frame *)
  let d = Frame.decoder ~max_frame:64 () in
  Frame.feed_string d ("{\"id\":1," ^ String.make 128 ' ');
  match Frame.next_request d with
  | `Error _ -> ()
  | _ -> Alcotest.fail "oversized JSON line accepted"

(* ---------------------------------------------------------------- *)
(* Live daemon scenarios                                            *)
(* ---------------------------------------------------------------- *)

type reply = { id : int; status : Frame.status; value : float }

let recv_reply c =
  match Client.recv c with
  | Frame.Reply { id; status; value } -> { id; status; value }
  | Frame.Reload_reply _ -> Alcotest.fail "unexpected reload reply"

let test_roundtrip_daemon () =
  let predictor = tiny_predictor () in
  let sock, control, dom = start_daemon predictor in
  let points = grid_points ~seed:5 64 in
  let c = Client.connect (Daemon.Unix_socket sock) in
  List.iter
    (fun wire ->
      Array.iteri (fun i p -> Client.predict c wire ~id:i p) points;
      Array.iteri
        (fun i p ->
          let r = recv_reply c in
          Alcotest.(check int) "id echoes" i r.id;
          Alcotest.(check bool) "status ok" true (r.status = Frame.Ok);
          let expect = Rbf.Network.eval predictor.Core.Predictor.network p in
          Alcotest.(check bool) "bit-identical to scalar oracle" true
            (Int64.equal (bits expect) (bits r.value)))
        points)
    [ Frame.Json_wire; Frame.Binary_wire ];
  (* well-framed but invalid points answer bad_request and never kill
     the daemon: wrong arity, out-of-cube, out-of-range natural units *)
  List.iter
    (fun (id, natural, point) ->
      Client.predict c Frame.Json_wire ~id ~natural point;
      let r = recv_reply c in
      Alcotest.(check int) "bad point id echoes" id r.id;
      Alcotest.(check bool) "bad point rejected" true
        (r.status = Frame.Bad_request))
    [
      (1001, false, [| 0.5 |]);
      (1002, false, Array.make dim 2.);
      (1003, true, [| 9.; 9.; 9.; 9.; 9.; 9.; 9.; 9.; 9. |]);
    ];
  (* and the daemon still serves after rejecting them *)
  Client.predict c Frame.Json_wire ~id:7 points.(0);
  let r = recv_reply c in
  Alcotest.(check bool) "still serving after bad requests" true
    (r.status = Frame.Ok);
  Client.close c;
  let s = stop_daemon control dom in
  Alcotest.(check int) "requests"
    ((2 * Array.length points) + 4)
    s.Daemon.requests;
  Alcotest.(check int) "answered all" s.Daemon.requests s.Daemon.answered;
  Alcotest.(check int) "bad requests counted" 3 s.Daemon.bad_requests;
  Alcotest.(check int) "lost none" 0 s.Daemon.lost;
  Alcotest.(check bool) "cache saw hits" true
    (s.Daemon.cache.Core.Memo.hits > 0)

(* a raw socket lets the test speak broken protocol on purpose *)
let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let raw_send fd s =
  let b = Bytes.of_string s in
  let n = ref 0 in
  while !n < Bytes.length b do
    n := !n + Unix.write fd b !n (Bytes.length b - !n)
  done

(* read until EOF, return everything — the daemon should answer the
   valid pre-garbage request and then close the read-poisoned conn
   once its egress drains *)
let raw_drain fd =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 256 in
  (try
     let rec go () =
       let n = Unix.read fd buf 0 (Bytes.length buf) in
       if n > 0 then (
         Buffer.add_subbytes acc buf 0 n;
         go ())
     in
     go ()
   with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
  Buffer.contents acc

let test_protocol_error_isolated () =
  let predictor = tiny_predictor () in
  let sock, control, dom = start_daemon predictor in
  let points = grid_points ~seed:6 8 in
  let good = Client.connect (Daemon.Unix_socket sock) in
  (* prove the daemon is up before speaking garbage at it *)
  Client.predict good Frame.Json_wire ~id:99 points.(0);
  let warm = recv_reply good in
  Alcotest.(check bool) "daemon up" true (warm.status = Frame.Ok);
  (* the bad peer sends one valid request, then unframeable bytes *)
  let bad = raw_connect sock in
  raw_send bad
    (Frame.encode_request Frame.Binary_wire
       (Frame.Predict { id = 0; point = points.(0); natural = false }));
  raw_send bad "\x99\x99garbage that is neither JSON nor magic\n";
  let bad_bytes = raw_drain bad in
  Unix.close bad;
  (* the daemon answered the valid request before cutting the peer off
     (the stream may also carry a courtesy bad_request notice) *)
  let d = Frame.decoder () in
  Frame.feed_string d bad_bytes;
  let answered = ref false in
  let continue = ref true in
  while !continue do
    match Frame.next_response d with
    | `Msg (Frame.Reply { id = 0; status = Frame.Ok; value }, _) ->
        let expect =
          Rbf.Network.eval predictor.Core.Predictor.network points.(0)
        in
        Alcotest.(check bool) "pre-garbage request answered exactly" true
          (Int64.equal (bits expect) (bits value));
        answered := true
    | `Msg _ -> ()
    | `Need_more | `Error _ -> continue := false
  done;
  Alcotest.(check bool) "pre-garbage request answered" true !answered;
  (* the good client is unaffected before, during and after *)
  Array.iteri (fun i p -> Client.predict good Frame.Json_wire ~id:i p) points;
  Array.iteri
    (fun i p ->
      let r = recv_reply good in
      Alcotest.(check int) "id" i r.id;
      let expect = Rbf.Network.eval predictor.Core.Predictor.network p in
      Alcotest.(check bool) "good conn unaffected" true
        (Int64.equal (bits expect) (bits r.value)))
    points;
  Client.close good;
  let s = stop_daemon control dom in
  Alcotest.(check bool) "protocol error counted" true
    (s.Daemon.protocol_errors >= 1);
  Alcotest.(check int) "lost none" 0 s.Daemon.lost

let test_shed_under_overload () =
  let predictor = tiny_predictor () in
  let sock, control, dom =
    start_daemon
      ~tweak:(fun c -> { c with Daemon.max_pending = 4; max_batch = 4 })
      predictor
  in
  let points = grid_points ~seed:7 512 in
  let c = Client.connect (Daemon.Unix_socket sock) in
  let load = Client.drive c Frame.Binary_wire ~pipeline:256 points in
  Client.close c;
  let s = stop_daemon control dom in
  Alcotest.(check int) "every request answered somehow"
    (Array.length points)
    (load.Client.ok + load.Client.shed + load.Client.timeouts
   + load.Client.other);
  Alcotest.(check int) "daemon agrees on shed" s.Daemon.shed load.Client.shed;
  Alcotest.(check bool) "some requests served" true (load.Client.ok > 0);
  Alcotest.(check int) "none lost" 0 s.Daemon.lost

let test_drain_zero_loss () =
  let predictor = tiny_predictor () in
  let sock, control, dom = start_daemon predictor in
  let points = grid_points ~seed:8 128 in
  let c = Client.connect (Daemon.Unix_socket sock) in
  Array.iteri (fun i p -> Client.predict c Frame.Binary_wire ~id:i p) points;
  (* drain while replies are still in flight *)
  Daemon.request_drain control;
  let got = ref 0 in
  (try
     while !got < Array.length points do
       ignore (recv_reply c);
       incr got
     done
   with Obs.Error.Archpred _ -> ());
  Client.close c;
  let s = Domain.join dom in
  Alcotest.(check int) "all accepted requests answered" s.Daemon.requests
    s.Daemon.answered;
  Alcotest.(check int) "zero lost on drain" 0 s.Daemon.lost

let test_hot_reload () =
  let pred_a = tiny_predictor ~seed:41 () in
  let pred_b = tiny_predictor ~seed:97 () in
  let dir = Filename.get_temp_dir_name () in
  let path_a = Filename.concat dir "served_reload_a.model" in
  let path_b = Filename.concat dir "served_reload_b.model" in
  let path_bad = Filename.concat dir "served_reload_bad.model" in
  Core.Persist.save pred_a path_a;
  Core.Persist.save pred_b path_b;
  (* a torn model file: valid prefix, then truncation breaks the CRC *)
  let full = Core.Persist.to_string pred_b in
  Out_channel.with_open_bin path_bad (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full - 7)));
  let sock, control, dom =
    start_daemon
      ~tweak:(fun c -> { c with Daemon.model_path = Some path_a })
      pred_a
  in
  let p = (grid_points ~seed:9 1).(0) in
  let c = Client.connect (Daemon.Unix_socket sock) in
  let expect_a = Rbf.Network.eval pred_a.Core.Predictor.network p in
  let expect_b = Rbf.Network.eval pred_b.Core.Predictor.network p in
  Client.predict c Frame.Json_wire ~id:0 p;
  let r = recv_reply c in
  Alcotest.(check bool) "serves model A" true
    (Int64.equal (bits expect_a) (bits r.value));
  (* swap to B *)
  Client.reload c ~path:path_b ();
  (match Client.recv c with
  | Frame.Reload_reply { ok; _ } ->
      Alcotest.(check bool) "reload B accepted" true ok
  | _ -> Alcotest.fail "expected reload reply");
  Client.predict c Frame.Json_wire ~id:1 p;
  let r = recv_reply c in
  Alcotest.(check bool) "serves model B after reload" true
    (Int64.equal (bits expect_b) (bits r.value));
  (* a corrupt file must be rejected and roll back to B *)
  Client.reload c ~path:path_bad ();
  (match Client.recv c with
  | Frame.Reload_reply { ok; _ } ->
      Alcotest.(check bool) "corrupt reload rejected" false ok
  | _ -> Alcotest.fail "expected reload reply");
  Client.predict c Frame.Json_wire ~id:2 p;
  let r = recv_reply c in
  Alcotest.(check bool) "still serves model B" true
    (Int64.equal (bits expect_b) (bits r.value));
  Client.close c;
  let s = stop_daemon control dom in
  Alcotest.(check int) "one reload ok" 1 s.Daemon.reloads_ok;
  Alcotest.(check int) "one reload failed" 1 s.Daemon.reloads_failed;
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ path_a; path_b; path_bad ]

(* ---------------------------------------------------------------- *)
(* The fault matrix                                                 *)
(* ---------------------------------------------------------------- *)

(* Arm one serve-path site, run a full client scenario, and assert the
   invariants the daemon must keep under any single fault: it never
   crashes, and every Ok answer is bit-identical to the scalar oracle.
   Deterministic at 1 and 4 domains. *)
let fault_scenario ~site ~domains () =
  let predictor = tiny_predictor () in
  let points = grid_points ~seed:11 32 in
  Fault.reset ();
  Fault.arm ~site ~after:1 ();
  let sock, control, dom =
    start_daemon ~tweak:(fun c -> { c with Daemon.domains }) predictor
  in
  let ok_values = ref [] in
  let run_client wire =
    match Client.connect ~retries:50 (Daemon.Unix_socket sock) with
    | c ->
        (try
           Array.iteri (fun i p -> Client.predict c wire ~id:i p) points;
           (match site with
           | "serve.reload" ->
               Client.reload c ~path:"/nonexistent/model" ();
               ()
           | _ -> ());
           Array.iter
             (fun _ ->
               match Client.recv c with
               | Frame.Reply { id; status = Frame.Ok; value } ->
                   ok_values := (id, value) :: !ok_values
               | Frame.Reply _ | Frame.Reload_reply _ -> ())
             points
         with
        | Obs.Error.Archpred _ -> ()
        | Unix.Unix_error _ ->
            (* the armed fault killed this connection — that is the
               sanctioned absorption, not a daemon failure *)
            ());
        Client.close c
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  (* two connections, both framings, so the armed site gets exercised
     from more than one edge *)
  run_client Frame.Binary_wire;
  run_client Frame.Json_wire;
  let s = stop_daemon control dom in
  Fault.reset ();
  (* no crash: we got stats back.  No wrong answer: *)
  List.iter
    (fun (id, value) ->
      let expect =
        Rbf.Network.eval predictor.Core.Predictor.network points.(id)
      in
      Alcotest.(check bool)
        (Printf.sprintf "site %s domains %d: answer %d exact" site domains id)
        true
        (Int64.equal (bits expect) (bits value)))
    !ok_values;
  Alcotest.(check bool)
    (Printf.sprintf "site %s: accounting sane" site)
    true
    (s.Daemon.answered <= s.Daemon.requests
    && s.Daemon.lost + s.Daemon.answered <= s.Daemon.requests);
  (* a reload fault must have been absorbed as a failed reload *)
  if site = "serve.reload" then
    Alcotest.(check bool) "reload fault counted" true
      (s.Daemon.reloads_failed >= 1)

let test_fault_matrix () =
  List.iter
    (fun domains ->
      List.iter
        (fun site -> fault_scenario ~site ~domains ())
        [ "serve.accept"; "serve.read"; "serve.write"; "serve.reload" ])
    [ 1; 4 ]

(* domains must not change a single bit of any answer *)
let test_domains_bit_identical () =
  let predictor = tiny_predictor () in
  let points = grid_points ~seed:13 96 in
  let answers domains =
    let sock, control, dom =
      start_daemon
        ~tweak:(fun c ->
          { c with Daemon.domains; cache_capacity = 8 (* force misses *) })
        predictor
    in
    let c = Client.connect (Daemon.Unix_socket sock) in
    let got = Array.make (Array.length points) 0. in
    Array.iteri (fun i p -> Client.predict c Frame.Binary_wire ~id:i p) points;
    Array.iter
      (fun _ ->
        let r = recv_reply c in
        got.(r.id) <- r.value)
      points;
    Client.close c;
    ignore (stop_daemon control dom);
    got
  in
  let a1 = answers 1 in
  let a4 = answers 4 in
  Array.iteri
    (fun i v1 ->
      Alcotest.(check bool)
        (Printf.sprintf "point %d identical at 1 and 4 domains" i)
        true
        (Int64.equal (bits v1) (bits a4.(i))))
    a1

(* ---------------------------------------------------------------- *)
(* Coalesced egress                                                 *)
(* ---------------------------------------------------------------- *)

(* Enough binary replies (18 bytes each) to overflow a Unix socket's
   ~230 KB of in-flight data, so the daemon's writes go partial. *)
let burst = 16_384

let burst_points = grid_points ~seed:21 burst

(* A raw peer that sends [burst] binary requests and reads nothing yet.
   A small receive buffer, where the kernel honours it, makes the
   daemon's writes go partial even sooner. *)
let send_burst sock =
  let rec connect attempt =
    match raw_connect sock with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when attempt < 500 ->
        (* the daemon domain may still be binding its socket *)
        Unix.sleepf 0.002;
        connect (attempt + 1)
  in
  let fd = connect 0 in
  Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
  let b = Buffer.create (burst * 84) in
  Array.iteri
    (fun id point -> Frame.add_request b Frame.Binary_wire (Frame.Predict { id; point; natural = false }))
    burst_points;
  (* the daemon may cut the peer off mid-burst (max_egress) *)
  (try raw_send fd (Buffer.contents b)
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  fd

(* Read until EOF or until [want] replies, [chunk] bytes per read with
   [pause] between reads, after decoding [prefix] (bytes already read);
   return the number of complete replies, checked bit-exact against the
   oracle and in request order. *)
let read_replies ?(chunk = 65536) ?(pause = 0.) ?want ?(prefix = "") predictor fd =
  let d = Frame.decoder () in
  let buf = Bytes.create chunk in
  let got = ref 0 and bad = ref 0 in
  let rec decode () =
    match Frame.next_response d with
    | `Msg (Frame.Reply { id; status = Frame.Ok; value }, _) ->
        let expect = Rbf.Network.eval predictor.Core.Predictor.network burst_points.(id) in
        if id <> !got || not (Int64.equal (bits expect) (bits value)) then incr bad;
        incr got;
        decode ()
    | `Msg _ ->
        incr bad;
        decode ()
    | `Need_more -> ()
    | `Error e -> Alcotest.failf "reply stream: %s" e
  in
  Frame.feed_string d prefix;
  decode ();
  let continue = ref true in
  while !continue && (match want with Some w -> !got < w | None -> true) do
    match Unix.read fd buf 0 chunk with
    | 0 -> continue := false
    | n ->
        Frame.feed d buf 0 n;
        decode ();
        if pause > 0. then Unix.sleepf pause
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> continue := false
  done;
  Alcotest.(check int) "replies ok, exact and in order" 0 !bad;
  !got

let test_partial_writes_exact () =
  let predictor = tiny_predictor () in
  let obs = Obs.create () in
  let sock, control, dom = start_daemon ~obs predictor in
  let fd = send_burst sock in
  (* a slow reader: 4 KiB at a time *)
  let got = read_replies ~chunk:4096 ~pause:0.0002 ~want:burst predictor fd in
  Unix.close fd;
  let s = stop_daemon control dom in
  Alcotest.(check int) "every reply read" burst got;
  Alcotest.(check int) "requests" burst s.Daemon.requests;
  Alcotest.(check int) "answered" burst s.Daemon.answered;
  Alcotest.(check int) "lost" 0 s.Daemon.lost;
  Alcotest.(check bool) "writes went partial" true (Obs.counter obs "served.write.partial" > 0)

(* Wait until the daemon has tried [ticks] more writes: with replies
   pending it tries one every tick, so by then it has read and answered
   everything the peer sent. *)
let await_write_attempts ticks =
  let h0 = Fault.hits "serve.write" in
  while Fault.hits "serve.write" < h0 + ticks do
    Unix.sleepf 0.002
  done

let test_write_fault_mid_buffer () =
  let predictor = tiny_predictor () in
  Fault.reset ();
  Fault.record true;
  let sock, control, dom = start_daemon predictor in
  let fd = send_burst sock in
  await_write_attempts 25;
  (* free a little room: the daemon's next write fills it, most likely
     stopping mid-reply, and leaves the rest of its buffer pending *)
  let head = Bytes.create 20_000 in
  let n = ref 0 in
  while !n < Bytes.length head do
    n := !n + Unix.read fd head !n (Bytes.length head - !n)
  done;
  await_write_attempts 3;
  (* every later write faults: the connection dies with part of its
     reply buffer still pending *)
  Fault.arm ~site:"serve.write" ~after:(Fault.hits "serve.write" + 1) ~sticky:true ();
  let got = read_replies ~prefix:(Bytes.to_string head) predictor fd in
  Unix.close fd;
  let s = stop_daemon control dom in
  Fault.reset ();
  Alcotest.(check int) "requests" burst s.Daemon.requests;
  Alcotest.(check bool) "some replies flushed first" true (got > 0);
  Alcotest.(check bool) "some replies still pending" true (got < burst);
  Alcotest.(check int) "answered = replies fully flushed" got s.Daemon.answered;
  Alcotest.(check int) "lost = replies not fully flushed" (burst - got) s.Daemon.lost;
  Alcotest.(check int) "a daemon-side cut is no hang-up" 0 s.Daemon.hangups

let test_max_egress_disconnect () =
  let predictor = tiny_predictor () in
  let obs = Obs.create () in
  let sock, control, dom =
    start_daemon ~obs ~tweak:(fun c -> { c with Daemon.max_egress = 4096 }) predictor
  in
  let fd = send_burst sock in
  let got = read_replies predictor fd in
  Unix.close fd;
  let s = stop_daemon control dom in
  Alcotest.(check int) "disconnected once" 1 (Obs.counter obs "served.egress_overflow");
  Alcotest.(check int) "answered = replies fully flushed" got s.Daemon.answered;
  Alcotest.(check bool) "replies lost" true (s.Daemon.lost > 0);
  Alcotest.(check int) "identity" s.Daemon.requests (s.Daemon.answered + s.Daemon.lost)

(* A peer that sends a burst and hangs up without reading costs its own
   replies (counted as hang-ups) and nothing else. *)
let test_peer_hangup () =
  let predictor = tiny_predictor () in
  let sock, control, dom = start_daemon predictor in
  let fd = send_burst sock in
  Unix.close fd;
  let c = Client.connect (Daemon.Unix_socket sock) in
  let points = grid_points ~seed:22 200 in
  let load = Client.drive c Frame.Binary_wire points in
  Client.close c;
  let s = stop_daemon control dom in
  Alcotest.(check int) "second client fully served" 200 load.Client.ok;
  Alcotest.(check bool) "hang-up replies lost" true (s.Daemon.lost > 0);
  Alcotest.(check int) "all of them hang-ups" s.Daemon.lost s.Daemon.hangups;
  Alcotest.(check int) "identity" s.Daemon.requests (s.Daemon.answered + s.Daemon.lost)

(* [drive] on both wires and several window depths, over a request
   count that is no multiple of the send chunk: every reply arrives and
   the checksum is the oracle's, bit for bit. *)
let test_drive_checksum () =
  let predictor = tiny_predictor () in
  let sock, control, dom = start_daemon predictor in
  let n = 1_001 in
  let on_grid = grid_points ~seed:23 n in
  let rng = Stats.Rng.create 24 in
  let off_grid = Array.init n (fun _ -> Array.init dim (fun _ -> Stats.Rng.unit_float rng)) in
  let c = Client.connect (Daemon.Unix_socket sock) in
  List.iter
    (fun (wire, points) ->
      let oracle = Array.fold_left ( +. ) 0. (Core.Predictor.predict_batch predictor points) in
      List.iter
        (fun pipeline ->
          let load = Client.drive c wire ~pipeline points in
          Alcotest.(check int) (Printf.sprintf "pipeline %d: all ok" pipeline) n load.Client.ok;
          Alcotest.(check bool)
            (Printf.sprintf "pipeline %d: checksum is the oracle's" pipeline)
            true
            (Int64.equal (bits oracle) (bits load.Client.checksum)))
        [ 1; 7; 64 ])
    [ (Frame.Binary_wire, on_grid); (Frame.Json_wire, off_grid); (Frame.Binary_wire, off_grid) ];
  Client.close c;
  let s = stop_daemon control dom in
  Alcotest.(check int) "lost none" 0 s.Daemon.lost

let () =
  Alcotest.run "served"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip both wires" `Quick
            test_roundtrip_both_wires;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_chunked_roundtrip;
          Alcotest.test_case "every prefix truncation" `Quick
            test_every_prefix_truncation;
          Alcotest.test_case "corrupted length" `Quick test_corrupted_length;
          QCheck_alcotest.to_alcotest qcheck_garbage_total;
          Alcotest.test_case "oversized frames" `Quick
            test_oversized_frame_is_error;
          QCheck_alcotest.to_alcotest qcheck_json_encoding_pinned;
          Alcotest.test_case "binary reply in place" `Quick test_put_binary_reply;
          Alcotest.test_case "json frames in place" `Quick test_put_json_in_place;
          QCheck_alcotest.to_alcotest qcheck_request_scanner;
          QCheck_alcotest.to_alcotest qcheck_response_scanner;
          QCheck_alcotest.to_alcotest qcheck_request_scanner_fallback;
          QCheck_alcotest.to_alcotest qcheck_response_scanner_fallback;
          Alcotest.test_case "scanner truncation at every byte" `Quick test_scanner_truncation;
          Alcotest.test_case "binary ids are u32" `Quick test_binary_ids_u32;
          Alcotest.test_case "long line in small chunks" `Quick test_long_line_chunked;
          Alcotest.test_case "stream buffer stays bounded" `Quick test_stream_buffer_bounded;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "both framings round-trip live" `Quick
            test_roundtrip_daemon;
          Alcotest.test_case "protocol error isolated" `Quick
            test_protocol_error_isolated;
          Alcotest.test_case "overload sheds, never drops" `Quick
            test_shed_under_overload;
          Alcotest.test_case "drain loses nothing" `Quick test_drain_zero_loss;
          Alcotest.test_case "hot reload with rollback" `Quick test_hot_reload;
          Alcotest.test_case "fault matrix (1 and 4 domains)" `Slow
            test_fault_matrix;
          Alcotest.test_case "1 vs 4 domains bit-identical" `Quick
            test_domains_bit_identical;
        ] );
      ( "egress",
        [
          Alcotest.test_case "partial writes keep exact counts" `Quick
            test_partial_writes_exact;
          Alcotest.test_case "write fault mid-buffer" `Quick
            test_write_fault_mid_buffer;
          Alcotest.test_case "max_egress disconnect" `Quick
            test_max_egress_disconnect;
          Alcotest.test_case "peer hang-up isolated" `Quick test_peer_hangup;
          Alcotest.test_case "drive checksum, both wires" `Quick
            test_drive_checksum;
        ] );
    ]
