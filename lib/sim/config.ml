type t = {
  pipe_depth : int;
  rob_size : int;
  iq_size : int;
  lsq_size : int;
  l2_size : int;
  l2_latency : int;
  il1_size : int;
  dl1_size : int;
  dl1_latency : int;
  fetch_width : int;
  issue_width : int;
  commit_width : int;
  line_bytes : int;
  il1_assoc : int;
  dl1_assoc : int;
  l2_assoc : int;
  il1_latency : int;
  l2_prefetch : bool;
  dram : Dram.config;
  branch : Branch_predictor.config;
  fu : Fu_pool.config;
}

let default =
  {
    pipe_depth = 14;
    rob_size = 80;
    iq_size = 40;
    lsq_size = 40;
    l2_size = 2 * 1024 * 1024;
    l2_latency = 12;
    il1_size = 32 * 1024;
    dl1_size = 32 * 1024;
    dl1_latency = 2;
    fetch_width = 4;
    issue_width = 4;
    commit_width = 4;
    line_bytes = 64;
    il1_assoc = 2;
    dl1_assoc = 2;
    l2_assoc = 8;
    il1_latency = 1;
    l2_prefetch = false;
    dram = Dram.default_config;
    branch = Branch_predictor.default_config;
    fu = Fu_pool.default_config;
  }

(* Round a requested capacity to a whole number of sets. *)
let round_to_sets ~line ~assoc n =
  let granule = line * assoc in
  granule * max 1 ((n + (granule / 2)) / granule)

let validate t =
  let err msg = Error msg in
  if t.pipe_depth < 1 then err "pipe_depth < 1"
  else if t.rob_size < 4 then err "rob_size < 4"
  else if t.iq_size < 1 || t.iq_size > t.rob_size then
    err "iq_size outside [1, rob_size]"
  else if t.lsq_size < 1 || t.lsq_size > t.rob_size then
    err "lsq_size outside [1, rob_size]"
  else if t.l2_latency < 1 then err "l2_latency < 1"
  else if t.dl1_latency < 1 then err "dl1_latency < 1"
  else if t.fetch_width < 1 || t.issue_width < 1 || t.commit_width < 1 then
    err "widths must be >= 1"
  else if t.il1_size < t.line_bytes * t.il1_assoc then err "il1 too small"
  else if t.dl1_size < t.line_bytes * t.dl1_assoc then err "dl1 too small"
  else if t.l2_size < t.line_bytes * t.l2_assoc then err "l2 too small"
  else Ok ()

let make ?(base = default) ~pipe_depth ~rob_size ~iq_size ~lsq_size ~l2_size
    ~l2_latency ~il1_size ~dl1_size ~dl1_latency () =
  let t =
    {
      base with
      pipe_depth;
      rob_size;
      iq_size;
      lsq_size;
      l2_size = round_to_sets ~line:base.line_bytes ~assoc:base.l2_assoc l2_size;
      l2_latency;
      il1_size =
        round_to_sets ~line:base.line_bytes ~assoc:base.il1_assoc il1_size;
      dl1_size =
        round_to_sets ~line:base.line_bytes ~assoc:base.dl1_assoc dl1_size;
      dl1_latency;
    }
  in
  match validate t with
  | Ok () -> t
  | Error msg -> invalid_arg ("Config.make: " ^ msg)

let il1_config t =
  Cache.config ~size_bytes:t.il1_size
    ~line_bytes:t.line_bytes ~associativity:t.il1_assoc ~latency:t.il1_latency
    ()

let dl1_config t =
  Cache.config ~size_bytes:t.dl1_size
    ~line_bytes:t.line_bytes ~associativity:t.dl1_assoc ~latency:t.dl1_latency
    ()

let l2_config t =
  Cache.config ~size_bytes:t.l2_size
    ~line_bytes:t.line_bytes ~associativity:t.l2_assoc ~latency:t.l2_latency ()

let pp ppf t =
  Format.fprintf ppf
    "@[<v>pipe_depth=%d rob=%d iq=%d lsq=%d@ l2=%dKB lat=%d il1=%dKB \
     dl1=%dKB dl1_lat=%d@ widths=%d/%d/%d@]"
    t.pipe_depth t.rob_size t.iq_size t.lsq_size (t.l2_size / 1024)
    t.l2_latency (t.il1_size / 1024) (t.dl1_size / 1024) t.dl1_latency
    t.fetch_width t.issue_width t.commit_width
