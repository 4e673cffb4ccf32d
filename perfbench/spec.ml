(* BENCHMARK.json: the one place the workload names and the metric
   definitions (unit, direction, regression bound) are written down.  The
   benchmark reads it at run time to label what it prints and to judge
   comparisons, so the definitions cannot drift from the numbers. *)

module Json = Archpred_obs.Json

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  run_seconds : int;
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let valid_name s =
  let ok c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64 && String.for_all ok s
  && (match s.[0] with '_' | '.' | '-' -> false | _ -> true)

let valid_unit s =
  let ok c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1 && String.length s <= 16 && String.for_all ok s

let ( let* ) = Result.bind

let field k j =
  match Json.member k j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing key %S" k)

let string_field k j =
  match field k j with
  | Ok (Json.String s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "%S must be a string" k)
  | Error e -> Error e

let list_field k j =
  match field k j with
  | Ok (Json.List l) -> Ok l
  | Ok _ -> Error (Printf.sprintf "%S must be a list" k)
  | Error e -> Error e

let all f xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    xs (Ok [])

let metric ~bounded j =
  let* name = string_field "name" j in
  let* unit_ = string_field "unit" j in
  let* b = string_field "better" j in
  let* better =
    Option.to_result ~none:(Printf.sprintf "%s: better must be lower|higher" name)
      (better_of_string b)
  in
  let* bound =
    if not bounded then Ok None
    else
      match field "bound" j with
      | Ok (Json.Float f) -> Ok (Some f)
      | Ok (Json.Int i) -> Ok (Some (float_of_int i))
      | Ok _ -> Error (name ^ ": bound must be a number")
      | Error e -> Error (name ^ ": " ^ e)
  in
  Ok { name; unit_; better; bound }

let of_string text =
  let* j = Json.of_string text in
  let* run_seconds =
    match field "run_seconds" j with
    | Ok (Json.Int s) -> Ok s
    | Ok _ -> Error "run_seconds must be an integer"
    | Error e -> Error e
  in
  let* ws = list_field "workloads" j in
  let* workloads =
    all
      (fun w ->
        let* name = string_field "name" w in
        let* why = string_field "why" w in
        Ok (name, why))
      ws
  in
  let* e2e = list_field "end_to_end" j in
  let* end_to_end = all (metric ~bounded:true) e2e in
  let* layers = list_field "per_layer" j in
  let* per_layer = all (metric ~bounded:false) layers in
  Ok { run_seconds; workloads; end_to_end; per_layer }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match of_string text with
      | Ok t -> Ok t
      | Error e -> Error (path ^ ": " ^ e))

let problems t =
  let names =
    List.map fst t.workloads
    @ List.map (fun m -> m.name) (t.end_to_end @ t.per_layer)
  in
  let bad_names =
    List.filter_map
      (fun n -> if valid_name n then None else Some ("bad name " ^ n))
      names
  in
  let dups =
    List.filter_map
      (fun n ->
        if List.length (List.filter (String.equal n) names) > 1 then
          Some ("name used twice: " ^ n)
        else None)
      (List.sort_uniq String.compare names)
  in
  let bad_units =
    List.filter_map
      (fun m ->
        if valid_unit m.unit_ then None
        else Some (Printf.sprintf "%s: bad unit %S" m.name m.unit_))
      (t.end_to_end @ t.per_layer)
  in
  let bad_bounds =
    List.filter_map
      (fun m ->
        match m.bound with
        | Some b when b > 0. && b <= 0.25 -> None
        | Some b -> Some (Printf.sprintf "%s: bound %g outside (0, 0.25]" m.name b)
        | None -> Some (m.name ^ ": no bound"))
      t.end_to_end
  in
  let bad_whys =
    List.filter_map
      (fun (n, why) ->
        if String.length why = 0 || String.length why > 200 || String.contains why '\n'
        then Some (n ^ ": why must be one line of at most 200 characters")
        else None)
      t.workloads
  in
  let setup =
    match List.find_opt (fun m -> String.equal m.name "setup_s") t.end_to_end with
    | Some { unit_ = "s"; better = Lower; _ } -> []
    | Some _ -> [ "setup_s must be in s, lower is better" ]
    | None -> [ "no setup_s metric" ]
  in
  let counts =
    let n = List.length t.workloads in
    (if n < 2 || n > 8 then [ "2 to 8 workloads required" ] else [])
    @ (if List.length t.end_to_end < 1 || List.length t.end_to_end > 16 then
         [ "1 to 16 end-to-end metrics required" ]
       else [])
    @ (if List.length t.per_layer < 1 || List.length t.per_layer > 128 then
         [ "1 to 128 per-layer metrics required" ]
       else [])
    @ if t.run_seconds < 1 || t.run_seconds > 60 then [ "run_seconds outside 1..60" ]
      else []
  in
  bad_names @ dups @ bad_units @ bad_bounds @ bad_whys @ setup @ counts
