module Stats = Archpred_stats
module Simd = Archpred_simd.Simd
module Json = Archpred_obs.Json

let schema_version = 1

(* Dirt is judged on the tracked files other than the BENCH_*.json
   records in the working directory, which this module writes: the
   second of BENCH_parallel.json's two writers ([bench --sim], then
   [bench --micro]) would otherwise always stamp "-dirty". *)
let git_describe () =
  match Unix.open_process_in "git describe --always 2>/dev/null" with
  | exception Unix.Unix_error (_, _, _) -> "unknown"
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      ignore (Unix.close_process_in ic);
      (match line with
      | Some l when String.trim l <> "" ->
          let clean = "git diff --quiet HEAD -- ':(exclude)BENCH_*.json'" in
          String.trim l ^ if Sys.command (clean ^ " 2>/dev/null") = 0 then "" else "-dirty"
      | _ -> "unknown")

let metadata () =
  [
    ("cores", Json.Int (Domain.recommended_domain_count ()));
    ("domains", Json.Int (Stats.Parallel.default_domains ()));
    ("git_describe", Json.String (git_describe ()));
    ("simd", Json.String (Simd.to_string (Simd.level ())));
    ("simd_training", Json.String (Simd.to_string (Simd.training ())));
  ]

let envelope ~schema =
  ("schema", Json.String schema)
  :: ("schema_version", Json.Int schema_version)
  :: metadata ()

let obj ~schema fields = Json.Obj (envelope ~schema @ fields)

let preserved ~path keys =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
      match Json.of_string text with
      | Error _ -> []
      | Ok j ->
          List.filter_map
            (fun key ->
              match Json.member key j with
              | Some v -> Some (key, v)
              | None -> None)
            keys)

let write ~path ~schema fields =
  (* Serialise (and stamp [git_describe]) before touching [path]:
     truncating a tracked report first would self-stamp it "-dirty". *)
  let payload = Json.to_string (obj ~schema fields) in
  let oc = open_out path in
  output_string oc payload;
  output_char oc '\n';
  close_out oc
