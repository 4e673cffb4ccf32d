module Obs = Archpred_obs
module Json = Archpred_obs.Json
module Fault = Archpred_fault.Fault
module Crc32 = Archpred_core.Crc32

let frame payload = Crc32.to_hex (Crc32.string payload) ^ " " ^ payload ^ "\n"

(* Split the checksum from the payload and verify both: [None] means the
   line is not an intact frame (a torn or corrupted tail). *)
let unframe line =
  if String.length line < 10 || line.[8] <> ' ' then None
  else
    let payload = String.sub line 9 (String.length line - 9) in
    match Crc32.of_hex (String.sub line 0 8) with
    | Some crc when Crc32.string payload = crc -> (
        match Json.of_string payload with Ok j -> Some j | Error _ -> None)
    | Some _ | None -> None

(* Hexadecimal float literals round-trip every bit pattern (including the
   sign of zero), unlike decimal shortest-form printing. *)
let float_to_hex_string f = Printf.sprintf "%h" f
let float_of_hex_string = float_of_string_opt

let journals_dir dir = Filename.concat dir "journals"
let path dir worker = Filename.concat (journals_dir dir) (worker ^ ".journal")

let init ~dir =
  let d = journals_dir dir in
  match Unix.mkdir d 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (err, _, _) ->
      Obs.Error.io_error ~path:d (Unix.error_message err)

type t = { path : string; oc : out_channel; mutable unsynced : int }

(* Unit commits between fsyncs.  Every commit reaches the OS at once, so
   a killed process loses nothing it committed; a power loss can cost the
   last few units of recomputation, never a wrong merge, because a torn
   or zeroed tail ends the valid prefix. *)
let sync_every = 8

let header_line fingerprint worker =
  frame
    (Json.to_string
       (Json.Obj
          [
            ("type", Json.String "header");
            ("format", Json.String "archpred-shard");
            ("version", Json.Int 1);
            ("fingerprint", Json.String fingerprint);
            ("worker", Json.String worker);
          ]))

let check_header ~path:p ~fingerprint json =
  let field key =
    match Json.member key json with Some (Json.String s) -> Some s | _ -> None
  in
  let ok =
    (match field "type" with Some "header" -> true | _ -> false)
    && (match field "format" with Some "archpred-shard" -> true | _ -> false)
    && (match Json.member "version" json with
       | Some (Json.Int 1) -> true
       | _ -> false)
  in
  if not ok then
    Obs.Error.parse_error ~where:p ~line:1 "not an archpred shard journal";
  match field "fingerprint" with
  | Some fp when String.equal fp fingerprint -> ()
  | _ -> Obs.Error.parse_error ~where:p ~line:1 "journal spec fingerprint mismatch"

let read_all p =
  let ic =
    match open_in_bin p with
    | ic -> ic
    | exception Sys_error msg -> Obs.Error.io_error ~path:p msg
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match really_input_string ic (in_channel_length ic) with
      | s -> s
      | exception End_of_file -> Obs.Error.io_error ~path:p "short read")

(* Walk newline-terminated, checksum-valid lines from the front; anything
   after the first torn or corrupted line is dead weight.  Returns the
   parsed lines and the byte length of the valid prefix. *)
let valid_prefix content =
  let len = String.length content in
  let rec go pos acc =
    if pos >= len then (List.rev acc, pos)
    else
      match String.index_from_opt content pos '\n' with
      | None -> (List.rev acc, pos)
      | Some nl -> (
          let line = String.sub content pos (nl - pos) in
          match unframe line with
          | None -> (List.rev acc, pos)
          | Some json -> go (nl + 1) (json :: acc))
  in
  go 0 []

let sync t =
  flush t.oc;
  Unix.fsync (Unix.descr_of_out_channel t.oc);
  t.unsynced <- 0

let open_channel p flags =
  match open_out_gen (Open_wronly :: Open_binary :: flags) 0o644 p with
  | oc -> { path = p; oc; unsynced = 0 }
  | exception Sys_error msg -> Obs.Error.io_error ~path:p msg

let open_ ~dir ~worker ~fingerprint =
  let p = path dir worker in
  let fresh () =
    let t = open_channel p [ Open_creat; Open_trunc ] in
    output_string t.oc (header_line fingerprint worker);
    sync t;
    t
  in
  if not (Sys.file_exists p) then fresh ()
  else
    let content = read_all p in
    match valid_prefix content with
    | [], _ -> fresh ()
    | header :: _, keep ->
        check_header ~path:p ~fingerprint header;
        (if keep < String.length content then
           try Unix.truncate p keep
           with Unix.Unix_error (err, _, _) ->
             Obs.Error.io_error ~path:p (Unix.error_message err));
        open_channel p [ Open_append ]

let append_result t ~stage ~index ~value =
  Fault.point "shard.append";
  let payload =
    Json.to_string
      (Json.Obj
         [
           ("type", Json.String "result");
           ("stage", Json.String stage);
           ("index", Json.Int index);
           ("value", Json.String (float_to_hex_string value));
         ])
  in
  output_string t.oc (frame payload)

let commit_unit t ~stage ~lo ~hi =
  let payload =
    Json.to_string
      (Json.Obj
         [
           ("type", Json.String "unit");
           ("stage", Json.String stage);
           ("lo", Json.Int lo);
           ("hi", Json.Int hi);
         ])
  in
  output_string t.oc (frame payload);
  flush t.oc;
  t.unsynced <- t.unsynced + 1;
  if t.unsynced >= sync_every then sync t

let close t =
  match
    flush t.oc;
    Unix.fsync (Unix.descr_of_out_channel t.oc);
    close_out t.oc
  with
  | () -> ()
  | exception Sys_error msg -> Obs.Error.io_error ~path:t.path msg

type scan = {
  units : (string, unit) Hashtbl.t;
  values : (string, float) Hashtbl.t;
}

let ukey stage lo hi = Printf.sprintf "%s:%d-%d" stage lo hi
let vkey stage index = Printf.sprintf "%s:%d" stage index

let empty_scan () = { units = Hashtbl.create 64; values = Hashtbl.create 256 }

let unit_complete scan ~stage ~lo ~hi = Hashtbl.mem scan.units (ukey stage lo hi)
let value scan ~stage ~index = Hashtbl.find_opt scan.values (vkey stage index)

let record_unit scan ~stage ~lo values =
  Hashtbl.replace scan.units (ukey stage lo (lo + Array.length values)) ();
  Array.iteri
    (fun k v ->
      let key = vkey stage (lo + k) in
      if not (Hashtbl.mem scan.values key) then Hashtbl.replace scan.values key v)
    values

let stage_values scan ~stage ~count =
  Array.init count (fun i ->
      match value scan ~stage ~index:i with
      | Some v -> v
      | None ->
          Obs.Error.infeasible ~where:"Shard.Journal.stage_values"
            (Printf.sprintf "missing merged result %s[%d]" stage i))

(* Merge one journal's parsed lines into the scan.  Results are held
   pending until a unit marker in the same journal covers them — a
   worker that died after appending results but before committing the
   unit contributes nothing for that unit. *)
let merge_lines scan lines =
  let commit_pending pending ~stage ~lo ~hi =
    List.iter
      (fun (s, i, v) ->
        if String.equal s stage && lo <= i && i < hi then
          if not (Hashtbl.mem scan.values (vkey s i)) then
            Hashtbl.replace scan.values (vkey s i) v)
      (List.rev pending);
    List.filter
      (fun (s, i, _) -> not (String.equal s stage && lo <= i && i < hi))
      pending
  in
  let record pending json =
    let str key =
      match Json.member key json with
      | Some (Json.String s) -> Some s
      | _ -> None
    in
    let int key =
      match Json.member key json with Some (Json.Int n) -> Some n | _ -> None
    in
    match str "type" with
    | Some "result" -> (
        match (str "stage", int "index", str "value") with
        | Some stage, Some index, Some value_hex -> (
            match float_of_hex_string value_hex with
            | Some v -> (stage, index, v) :: pending
            | None -> pending)
        | _ -> pending)
    | Some "unit" -> (
        match (str "stage", int "lo", int "hi") with
        | Some stage, Some lo, Some hi ->
            Hashtbl.replace scan.units (ukey stage lo hi) ();
            commit_pending pending ~stage ~lo ~hi
        | _ -> pending)
    | _ -> pending
  in
  (* Pending results left at end-of-journal were never committed. *)
  ignore (List.fold_left record [] lines)

let scan_dir ~dir ~fingerprint =
  Fault.point "shard.merge";
  let scan = empty_scan () in
  let d = journals_dir dir in
  (match Sys.readdir d with
  | exception Sys_error _ -> ()
  | files ->
      Array.sort String.compare files;
      Array.iter
        (fun file ->
          if Filename.check_suffix file ".journal" then
            let p = Filename.concat d file in
            let lines, _keep = valid_prefix (read_all p) in
            match lines with
            | [] -> ()
            | header :: rest ->
                check_header ~path:p ~fingerprint header;
                merge_lines scan rest)
        files);
  scan
