(* Readers for what the benchmark observes from outside the program:
   /proc status files, the CLI's stdout, and the daemon's --metrics
   stream.  Each is total: unexpected text yields [None] or is skipped,
   never an exception. *)

let lines text = String.split_on_char '\n' text

let vmhwm_kb status =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.equal (String.sub line 0 i) "VmHWM" -> (
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          match Scanf.sscanf_opt (String.trim rest) "%d kB%!" Fun.id with
          | Some kb when kb >= 0 -> Some kb
          | Some _ | None -> None)
      | Some _ | None -> None)
    (lines status)

(* /proc/<pid>/stat: "pid (comm) state ppid ..."; utime and stime are
   fields 14 and 15, counted after the parenthesised command name (which
   may itself contain spaces). *)
let cpu_ticks stat =
  match String.rindex_opt stat ')' with
  | None -> None
  | Some i -> (
      let rest = String.sub stat (i + 1) (String.length stat - i - 1) in
      let fields = List.filter (fun f -> f <> "") (String.split_on_char ' ' (String.trim rest)) in
      match List.filteri (fun k _ -> k = 11 || k = 12) fields with
      | [ u; s ] -> (
          match (int_of_string_opt u, int_of_string_opt s) with
          | Some u, Some s -> Some (u + s)
          | _ -> None)
      | _ -> None)

(* The CLI prints [test error: mean=5.12% std=...] with two decimals;
   the digits are kept as printed so goldens compare exactly. *)
let test_error_mean output =
  let prefix = "test error: mean=" in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        let rest =
          String.sub line (String.length prefix)
            (String.length line - String.length prefix)
        in
        match String.index_opt rest '%' with
        | Some j -> (
            let digits = String.sub rest 0 j in
            match float_of_string_opt digits with
            | Some v when Float.is_finite v -> Some digits
            | Some _ | None -> None)
        | None -> None
      else None)
    (lines output)

type drain = {
  connections : int;
  requests : int;
  answered : int;
  shed : int;
  timeouts : int;
  bad_requests : int;
  protocol_errors : int;
  hits : int;
  misses : int;
  bypasses : int;
  lost : int;
}

(* The block `archpred served` prints after a SIGTERM drain:
     drained: C connections, R requests, A answered
       shed S, timeouts T, bad requests B, protocol errors P
       reloads K ok / F failed
       cache: H hits, M misses, Y bypasses
       lost L *)
let drain_block output =
  let rec find = function
    | l :: rest when String.starts_with ~prefix:"drained:" l -> Some (l :: rest)
    | _ :: rest -> find rest
    | [] -> None
  in
  match find (lines output) with
  | Some (l1 :: l2 :: _l3 :: l4 :: l5 :: _) -> (
      let scan line fmt f = Scanf.sscanf_opt (String.trim line) fmt f in
      match
        ( scan l1 "drained: %d connections, %d requests, %d answered%!"
            (fun c r a -> (c, r, a)),
          scan l2 "shed %d, timeouts %d, bad requests %d, protocol errors %d%!"
            (fun s t b p -> (s, t, b, p)),
          scan l4 "cache: %d hits, %d misses, %d bypasses%!" (fun h m y ->
              (h, m, y)),
          scan l5 "lost %d%!" Fun.id )
      with
      | ( Some (connections, requests, answered),
          Some (shed, timeouts, bad_requests, protocol_errors),
          Some (hits, misses, bypasses),
          Some lost ) ->
          Some
            {
              connections;
              requests;
              answered;
              shed;
              timeouts;
              bad_requests;
              protocol_errors;
              hits;
              misses;
              bypasses;
              lost;
            }
      | _ -> None)
  | Some _ | None -> None

(* Final counter totals from a --metrics JSON-lines file: the lines
   [{"type":"counter","name":N,"value":V}]; the last one per name wins. *)
let counters jsonl =
  let module Json = Archpred_obs.Json in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok j -> (
          match (Json.member "type" j, Json.member "name" j, Json.member "value" j) with
          | Some (Json.String "counter"), Some (Json.String name), Some (Json.Int v) ->
              Hashtbl.replace tbl name v
          | _ -> ())
      | Error _ -> ())
    (List.filter (fun l -> String.trim l <> "") (lines jsonl));
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
