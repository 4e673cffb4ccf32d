module Design = Archpred_design
module Network = Archpred_rbf.Network
module Fault = Archpred_fault.Fault

let magic = "archpred-model"
let version = 2

let levels_to_string = function
  | Design.Parameter.Fixed l -> string_of_int l
  | Design.Parameter.Per_sample -> "S"

let body_to_string (p : Predictor.t) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "%s %d" magic version;
  let params = Design.Space.parameters p.Predictor.space in
  add "space %d" (Array.length params);
  Array.iter
    (fun (q : Design.Parameter.t) ->
      add "param %s %.17g %.17g %s %s %s" q.name q.lo q.hi
        (levels_to_string q.levels)
        (Design.Transform.to_string q.transform)
        (if q.integer then "int" else "float"))
    params;
  add "p_min %d" p.Predictor.p_min;
  add "alpha %.17g" p.Predictor.alpha;
  let centers = p.Predictor.network.Network.centers in
  let weights = p.Predictor.network.Network.weights in
  let dim = Array.length params in
  add "centers %d %d" (Array.length centers) dim;
  Array.iteri
    (fun j (c : Network.center) ->
      let floats xs =
        String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.17g") xs))
      in
      add "center %s %s %.17g" (floats c.Network.c) (floats c.Network.r)
        weights.(j))
    centers;
  Buffer.contents buf

(* Version 2 closes the file with an integrity trailer over every
   preceding byte; [load] refuses a model whose trailer does not match,
   so a torn or bit-rotted file can never be mistaken for a model. *)
let to_string p =
  let body = body_to_string p in
  body ^ Printf.sprintf "crc %s\n" (Crc32.to_hex (Crc32.string body))

exception Parse of int * string

(* Split the version-2 trailer off the raw text: the body (every byte up
   to and including the newline before the [crc] line), the trailer's
   checksum, and the 1-based line number of the trailer. *)
let split_trailer text =
  let trimmed = String.length text in
  let trimmed =
    let i = ref trimmed in
    while !i > 0 && (text.[!i - 1] = '\n' || text.[!i - 1] = ' ' || text.[!i - 1] = '\r') do
      decr i
    done;
    !i
  in
  let line_start =
    match String.rindex_from_opt text (trimmed - 1) '\n' with
    | Some i -> i + 1
    | None -> 0
  in
  let last = String.sub text line_start (trimmed - line_start) in
  let line_no =
    let n = ref 1 in
    String.iteri (fun i c -> if c = '\n' && i < line_start then incr n) text;
    !n
  in
  match String.split_on_char ' ' (String.trim last) with
  | [ "crc"; hex ] -> Some (String.sub text 0 line_start, hex, line_no)
  | _ -> None

let of_string text =
  let fail i msg = raise (Parse (i + 1, msg)) in
  try
    (* The version decides the framing, so it is read first, from the raw
       first line — an unsupported version must not be reported as a
       checksum problem. *)
    let first_line =
      match String.index_opt text '\n' with
      | Some i -> String.sub text 0 i
      | None -> text
    in
    let file_version =
      match
        String.split_on_char ' ' (String.trim first_line)
        |> List.filter (fun w -> w <> "")
      with
      | [ m; v ] when m = magic -> (
          match int_of_string_opt v with
          | Some v when v = 1 || v = 2 -> v
          | Some _ | None -> fail 0 "unsupported version")
      | _ -> fail 0 "not an archpred model file"
    in
    let body =
      if file_version = 1 then text
      else
        match split_trailer text with
        | None -> fail 0 "version 2 file without crc trailer"
        | Some (body, hex, line_no) ->
            let expect =
              match Crc32.of_hex hex with
              | Some c -> c
              | None -> fail (line_no - 1) ("bad crc trailer " ^ hex)
            in
            if Crc32.string body <> expect then
              fail (line_no - 1) "crc mismatch: model file is corrupt";
            body
    in
    let lines =
      String.split_on_char '\n' body
      |> List.filter (fun l -> String.trim l <> "")
      |> Array.of_list
    in
    let words i =
      if i >= Array.length lines then fail i "unexpected end of file"
      else String.split_on_char ' ' (String.trim lines.(i))
           |> List.filter (fun w -> w <> "")
    in
    let float_of i s =
      match float_of_string_opt s with
      | Some f -> f
      | None -> fail i ("bad float " ^ s)
    in
    let int_of i s =
      match int_of_string_opt s with
      | Some v -> v
      | None -> fail i ("bad int " ^ s)
    in
    (* A constructor's own check on a well-formed line is still a parse
       error of that line. *)
    let guard i f =
      match f () with v -> v | exception Invalid_argument msg -> fail i msg
    in
    let dim =
      match words 1 with
      | [ "space"; d ] -> int_of 1 d
      | _ -> fail 1 "expected: space <dim>"
    in
    if dim < 1 then fail 1 "a space needs at least one parameter";
    let params =
      List.init dim (fun k ->
          let i = 2 + k in
          match words i with
          | [ "param"; name; lo; hi; levels; transform; integer ] ->
              let transform =
                match Design.Transform.of_string transform with
                | Some t -> t
                | None -> fail i ("bad transform " ^ transform)
              in
              let levels =
                if levels = "S" then Design.Parameter.Per_sample
                else Design.Parameter.Fixed (int_of i levels)
              in
              let lo = float_of i lo and hi = float_of i hi in
              guard i (fun () ->
                  Design.Parameter.make name ~lo ~hi ~levels ~transform
                    ~integer:(integer = "int"))
          | _ -> fail i "expected: param <name> <lo> <hi> <levels> <tr> <int>")
    in
    let space = guard 1 (fun () -> Design.Space.create params) in
    let p_min =
      match words (2 + dim) with
      | [ "p_min"; v ] -> int_of (2 + dim) v
      | _ -> fail (2 + dim) "expected: p_min <int>"
    in
    let alpha =
      match words (3 + dim) with
      | [ "alpha"; v ] -> float_of (3 + dim) v
      | _ -> fail (3 + dim) "expected: alpha <float>"
    in
    let m, cdim =
      match words (4 + dim) with
      | [ "centers"; m; d ] -> (int_of (4 + dim) m, int_of (4 + dim) d)
      | _ -> fail (4 + dim) "expected: centers <m> <dim>"
    in
    if cdim <> dim then fail (4 + dim) "center dimension mismatch";
    if m < 1 then fail (4 + dim) "a model needs at least one center";
    let centers = ref [] and weights = ref [] in
    for j = 0 to m - 1 do
      let i = 5 + dim + j in
      match words i with
      | "center" :: rest when List.length rest = (2 * dim) + 1 ->
          let values = Array.of_list (List.map (float_of i) rest) in
          let c = Array.sub values 0 dim in
          let r = Array.sub values dim dim in
          guard i (fun () -> Network.check_center { Network.c; r });
          centers := { Network.c; r } :: !centers;
          weights := values.((2 * dim)) :: !weights
      | _ -> fail i "expected: center <c..> <r..> <w>"
    done;
    (* The [centers N D] header is authoritative: any line left over —
       a duplicated center, stray data, a second model pasted on — means
       the counts disagree and the file must be rejected, not silently
       half-read. *)
    let expected_lines = 5 + dim + m in
    if Array.length lines > expected_lines then
      fail expected_lines
        (match words expected_lines with
        | "center" :: _ ->
            Printf.sprintf
              "more center lines than the declared count (centers %d %d)" m dim
        | _ -> "unexpected trailing line after the last center");
    let network =
      {
        Network.centers = Array.of_list (List.rev !centers);
        weights = Array.of_list (List.rev !weights);
      }
    in
    (* [make] packs the network into batch-kernel storage at load time *)
    guard (4 + dim) (fun () -> Predictor.make ~space ~network ~p_min ~alpha ())
  with Parse (line, msg) ->
    Archpred_obs.Error.parse_error ~where:"Persist.of_string" ~line msg

(* Atomic save: the bytes go to a sibling temp file, reach the disk
   (fsync) before the rename, and only then replace [path] in one atomic
   step.  A crash, ENOSPC, or injected fault at any point leaves the
   previous model intact — the destination is never opened for writing.
   Fault sites: ["io.write"] before the body is written,
   ["persist.rename"] after the temp file is durable. *)
let save p path =
  let data = to_string p in
  let tmp = path ^ ".tmp" in
  let committed = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !committed then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      (match open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp with
      | exception Sys_error msg -> Archpred_obs.Error.io_error ~path:tmp msg
      | oc ->
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              Fault.point "io.write";
              (try
                 output_string oc data;
                 flush oc
               with Sys_error msg -> Archpred_obs.Error.io_error ~path:tmp msg);
              (try Unix.fsync (Unix.descr_of_out_channel oc)
               with Unix.Unix_error (err, _, _) ->
                 Archpred_obs.Error.io_error ~path:tmp (Unix.error_message err))));
      Fault.point "persist.rename";
      (match Sys.rename tmp path with
      | () -> committed := true
      | exception Sys_error msg -> Archpred_obs.Error.io_error ~path msg);
      (* Best-effort durability of the directory entry itself; not all
         filesystems allow fsync on a directory fd. *)
      match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
      | exception Unix.Unix_error _ -> ()
      | fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ()))

let load path =
  match open_in path with
  | exception Sys_error msg -> Archpred_obs.Error.io_error ~path msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> of_string (In_channel.input_all ic))
