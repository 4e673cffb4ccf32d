module Obs = Archpred_obs
module Json = Archpred_obs.Json
module Core = Archpred_core

type mode = Core.Pipeline.schedule =
  | Train
  | Accuracy of { sizes : int list; target_mean_pct : float }

type t = {
  benchmark : string;
  metric : Core.Response.metric;
  seed : int;
  trace_length : int;
  sample_size : int;
  test_n : int;
  lhs_candidates : int;
  criterion : Archpred_rbf.Criteria.t;
  p_min_grid : int list;
  alpha_grid : float list;
  shard_unit : int;
  stream_refit : bool;
  refit_full_every : int;
  mode : mode;
}

let where = "Shard.Spec"

let validate t =
  if t.sample_size < 2 then
    Obs.Error.invalid_input ~where "sample_size must be >= 2";
  if t.lhs_candidates < 1 then
    Obs.Error.invalid_input ~where "lhs_candidates must be >= 1";
  if t.shard_unit < 1 then
    Obs.Error.invalid_input ~where "shard_unit must be >= 1";
  if t.test_n < 0 then Obs.Error.invalid_input ~where "test_n must be >= 0";
  if t.refit_full_every < 0 then
    Obs.Error.invalid_input ~where "refit_full_every must be >= 0";
  (match t.p_min_grid, t.alpha_grid with
  | [], _ | _, [] -> Obs.Error.invalid_input ~where "empty tuning grid"
  | _ :: _, _ :: _ -> ());
  (match t.mode with
  | Train -> ()
  | Accuracy { sizes; target_mean_pct } ->
      (match sizes with
      | [] -> Obs.Error.invalid_input ~where "accuracy mode needs sizes"
      | _ :: _ -> ());
      if List.exists (fun n -> n < 2) sizes then
        Obs.Error.invalid_input ~where "accuracy sizes must be >= 2";
      if t.test_n < 1 then
        Obs.Error.invalid_input ~where "accuracy mode needs test points";
      if not (Float.is_finite target_mean_pct) then
        Obs.Error.invalid_input ~where "target_mean_pct must be finite");
  t

let metric_of_string = function
  | "cpi" -> Some Core.Response.Cpi
  | "epi" -> Some Core.Response.Energy_per_instruction
  | "edp" -> Some Core.Response.Energy_delay_product
  | _ -> None

let hex f = Json.String (Journal.float_to_hex_string f)

let of_hex = function
  | Json.String s -> Journal.float_of_hex_string s
  | _ -> None

let to_json t =
  let mode_fields =
    match t.mode with
    | Train -> [ ("mode", Json.String "train") ]
    | Accuracy { sizes; target_mean_pct } ->
        [
          ("mode", Json.String "accuracy");
          ("sizes", Json.List (List.map (fun n -> Json.Int n) sizes));
          ("target_mean_pct", hex target_mean_pct);
        ]
  in
  Json.Obj
    ([
       ("format", Json.String "archpred-shard-spec");
       ("version", Json.Int 1);
       ("benchmark", Json.String t.benchmark);
       ("metric", Json.String (Core.Response.metric_to_string t.metric));
       ("seed", Json.Int t.seed);
       ("trace_length", Json.Int t.trace_length);
       ("sample_size", Json.Int t.sample_size);
       ("test_n", Json.Int t.test_n);
       ("lhs_candidates", Json.Int t.lhs_candidates);
       ("criterion", Json.String (Archpred_rbf.Criteria.to_string t.criterion));
       ("p_min_grid", Json.List (List.map (fun p -> Json.Int p) t.p_min_grid));
       ("alpha_grid", Json.List (List.map hex t.alpha_grid));
       ("shard_unit", Json.Int t.shard_unit);
       ("stream_refit", Json.Bool t.stream_refit);
       ("refit_full_every", Json.Int t.refit_full_every);
     ]
    @ mode_fields)

let fingerprint t =
  Core.Crc32.to_hex (Core.Crc32.string (Json.to_string (to_json t)))

let path dir = Filename.concat dir "spec.json"

let save ~dir t =
  let t = validate t in
  let p = path dir in
  let tmp = p ^ ".tmp" in
  let oc =
    match open_out_bin tmp with
    | oc -> oc
    | exception Sys_error msg -> Obs.Error.io_error ~path:tmp msg
  in
  (match
     output_string oc (Json.to_string (to_json t));
     output_char oc '\n';
     close_out oc
   with
  | () -> ()
  | exception Sys_error msg ->
      close_out_noerr oc;
      Obs.Error.io_error ~path:tmp msg);
  match Sys.rename tmp p with
  | () -> ()
  | exception Sys_error msg -> Obs.Error.io_error ~path:p msg

let fail_parse msg = Obs.Error.parse_error ~where ~line:1 msg

let int_field json key =
  match Json.member key json with
  | Some (Json.Int n) -> n
  | _ -> fail_parse (Printf.sprintf "missing int field %S" key)

let string_field json key =
  match Json.member key json with
  | Some (Json.String s) -> s
  | _ -> fail_parse (Printf.sprintf "missing string field %S" key)

let bool_field json key =
  match Json.member key json with
  | Some (Json.Bool b) -> b
  | _ -> fail_parse (Printf.sprintf "missing bool field %S" key)

let hex_field json key =
  match Json.member key json with
  | Some v -> (
      match of_hex v with
      | Some f -> f
      | None -> fail_parse (Printf.sprintf "bad float field %S" key))
  | None -> fail_parse (Printf.sprintf "missing float field %S" key)

let int_list_field json key =
  match Json.member key json with
  | Some (Json.List items) ->
      List.map
        (function
          | Json.Int n -> n
          | _ -> fail_parse (Printf.sprintf "bad int list %S" key))
        items
  | _ -> fail_parse (Printf.sprintf "missing list field %S" key)

let hex_list_field json key =
  match Json.member key json with
  | Some (Json.List items) ->
      List.map
        (fun v ->
          match of_hex v with
          | Some f -> f
          | None -> fail_parse (Printf.sprintf "bad float list %S" key))
        items
  | _ -> fail_parse (Printf.sprintf "missing list field %S" key)

let of_json json =
  (match Json.member "format" json with
  | Some (Json.String "archpred-shard-spec") -> ()
  | _ -> fail_parse "not an archpred shard spec");
  (match Json.member "version" json with
  | Some (Json.Int 1) -> ()
  | _ -> fail_parse "unsupported spec version");
  let metric =
    let s = string_field json "metric" in
    match metric_of_string s with
    | Some m -> m
    | None -> fail_parse (Printf.sprintf "unknown metric %S" s)
  in
  let criterion =
    let s = string_field json "criterion" in
    match Archpred_rbf.Criteria.of_string s with
    | Some c -> c
    | None -> fail_parse (Printf.sprintf "unknown criterion %S" s)
  in
  let mode =
    match string_field json "mode" with
    | "train" -> Train
    | "accuracy" ->
        Accuracy
          {
            sizes = int_list_field json "sizes";
            target_mean_pct = hex_field json "target_mean_pct";
          }
    | s -> fail_parse (Printf.sprintf "unknown mode %S" s)
  in
  validate
    {
      benchmark = string_field json "benchmark";
      metric;
      seed = int_field json "seed";
      trace_length = int_field json "trace_length";
      sample_size = int_field json "sample_size";
      test_n = int_field json "test_n";
      lhs_candidates = int_field json "lhs_candidates";
      criterion;
      p_min_grid = int_list_field json "p_min_grid";
      alpha_grid = hex_list_field json "alpha_grid";
      shard_unit = int_field json "shard_unit";
      stream_refit = bool_field json "stream_refit";
      refit_full_every = int_field json "refit_full_every";
      mode;
    }

let load ~dir =
  let p = path dir in
  let ic =
    match open_in_bin p with
    | ic -> ic
    | exception Sys_error msg -> Obs.Error.io_error ~path:p msg
  in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> s
        | exception End_of_file -> Obs.Error.io_error ~path:p "truncated spec")
  in
  match Json.of_string (String.trim text) with
  | Ok json -> of_json json
  | Error msg -> fail_parse msg

let config ?obs (t : t) =
  let module C = Core.Config in
  let c =
    C.default
    |> C.with_seed t.seed
    |> C.with_trace_length t.trace_length
    |> C.with_sample_size t.sample_size
    |> C.with_lhs_candidates t.lhs_candidates
    |> C.with_criterion t.criterion
    |> C.with_p_min_grid t.p_min_grid
    |> C.with_alpha_grid t.alpha_grid
    |> C.with_sim_batch t.shard_unit
    |> C.with_stream_refit t.stream_refit
    |> C.with_refit_full_every t.refit_full_every
  in
  let c = match obs with None -> c | Some obs -> C.with_obs obs c in
  C.validate c

let response ?obs t =
  match t.benchmark with
  | "synthetic:smooth" -> Core.Response.synthetic_smooth ~dim:9
  | "synthetic:cliff" -> Core.Response.synthetic_cliff ~dim:9
  | name -> (
      match Archpred_workloads.Spec2000_extra.find name with
      | Some profile ->
          Core.Response.simulator_metric ?obs ~trace_length:t.trace_length
            ~seed:t.seed ~metric:t.metric profile
      | None ->
          Obs.Error.invalid_input ~where
            (Printf.sprintf "unknown benchmark %S" name))

let pipeline ?obs ?(domains = 1) t =
  let t = validate t in
  (* The root generator yields the held-out test points first, then
     everything the build draws, as the CLI's single-process build
     consumes it. *)
  let rng = Archpred_stats.Rng.create t.seed in
  let test_points =
    if t.test_n = 0 then [||] else Core.Paper_space.test_points rng ~n:t.test_n
  in
  Core.Pipeline.create
    ~config:(Core.Config.with_domains domains (config ?obs t))
    ~space:Core.Paper_space.space ~response:(response ?obs t) ~rng
    ~schedule:t.mode ~test_points
