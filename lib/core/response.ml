module Space = Archpred_design.Space
module Parallel = Archpred_stats.Parallel
module Sim = Archpred_sim

type t = {
  name : string;
  eval : Space.point -> float;
  eval_many : (?domains:int -> Space.point array -> float array) option;
}

let make ?eval_many name eval = { name; eval; eval_many }

(* Memo key: the exact bit pattern of the coordinates. *)
let key_of_point (p : Space.point) =
  Array.fold_left
    (fun acc x -> (acc * 1000003) lxor Int64.to_int (Int64.bits_of_float x))
    0 p

(* The cache is shared across domains during [evaluate_many]; a mutex
   guards table accesses.  Concurrent misses of the same point may simulate
   twice — harmless, since simulation is deterministic. *)
let memoized ?many name f =
  let cache : (int * Space.point, float) Hashtbl.t = Hashtbl.create 256 in
  let lock = Mutex.create () in
  let with_lock g =
    Mutex.lock lock;
    let v = g () in
    Mutex.unlock lock;
    v
  in
  let eval p =
    let k = (key_of_point p, p) in
    match with_lock (fun () -> Hashtbl.find_opt cache k) with
    | Some v -> v
    | None ->
        let v = f p in
        with_lock (fun () -> Hashtbl.replace cache k v);
        v
  in
  (* Batched evaluation: answer hits from the memo, run the misses as one
     batch (duplicates within a batch evaluate individually — redundant
     but harmless, evaluation is deterministic), then fill the table. *)
  let eval_many ?domains ps =
    let out = Array.make (Array.length ps) 0. in
    let misses = ref [] in
    Array.iteri
      (fun i p ->
        let k = (key_of_point p, p) in
        match with_lock (fun () -> Hashtbl.find_opt cache k) with
        | Some v -> out.(i) <- v
        | None -> misses := i :: !misses)
      ps;
    (match Array.of_list (List.rev !misses) with
    | [||] -> ()
    | idx ->
        let pts = Array.map (fun i -> ps.(i)) idx in
        let vals =
          match many with
          | Some g -> g ?domains pts
          | None -> Parallel.map ?domains f pts
        in
        Array.iteri
          (fun j i ->
            let p = ps.(i) in
            with_lock (fun () ->
                Hashtbl.replace cache (key_of_point p, p) vals.(j));
            out.(i) <- vals.(j))
          idx);
    out
  in
  { name; eval; eval_many = Some eval_many }

type metric = Cpi | Energy_per_instruction | Energy_delay_product

let metric_to_string = function
  | Cpi -> "cpi"
  | Energy_per_instruction -> "epi"
  | Energy_delay_product -> "edp"

let simulator_metric ?(obs = Archpred_obs.null) ?(trace_length = 100_000)
    ?(seed = 42) ~metric
    (profile : Archpred_workloads.Profile.t) =
  let trace =
    Archpred_workloads.Generator.generate ~seed profile ~length:trace_length
  in
  (* The decoded streams are shared by every simulation of this response.
     Built here, on the caller, rather than lazily: [raw] and [raw_many]
     run inside [Parallel] tasks, and two domains must not race to force
     one lazy value. *)
  let plan = Sim.Batch.plan trace in
  let of_result cfg (result : Sim.Batch.result) =
    match metric with
    | Cpi -> result.Sim.Batch.cpi
    | Energy_per_instruction ->
        (Sim.Power.estimate cfg result).Sim.Power.energy_per_instruction
    | Energy_delay_product ->
        (Sim.Power.estimate cfg result).Sim.Power.energy_delay_product
  in
  (* Counted on cache misses only — memoised hits re-run nothing.  This
     runs on whichever domain simulates; the obs counters are per-domain
     buffers, so no synchronisation happens here.  The [Batch.counters]
     sums say where the engine's time went. *)
  let simulate ?domains configs =
    let runs = Sim.Batch.run_plan_counted ?domains plan configs in
    let total f = Array.fold_left (fun acc (_, c) -> acc + f c) 0 runs in
    Archpred_obs.count obs "sim.runs" (Array.length configs);
    Archpred_obs.count obs "sim.instructions"
      (trace_length * Array.length configs);
    List.iter
      (fun (name, f) -> Archpred_obs.count obs name (total f))
      [
        ("sim.cycles_stepped", fun c -> c.Sim.Batch.cycles_stepped);
        ("sim.cycles_skipped", fun c -> c.Sim.Batch.cycles_skipped);
        ("sim.issue_attempts", fun c -> c.Sim.Batch.issue_attempts);
        ("sim.store_walk_steps", fun c -> c.Sim.Batch.store_walk_steps);
        ("sim.il1_accesses", fun c -> c.Sim.Batch.il1_accesses);
        ("sim.dl1_accesses", fun c -> c.Sim.Batch.dl1_accesses);
        ("sim.l2_accesses", fun c -> c.Sim.Batch.l2_accesses);
      ];
    Array.map2 (fun cfg (r, _) -> of_result cfg r) configs runs
  in
  (* One engine for both paths: a single point is a batch of one, run on
     the calling domain. *)
  let raw p = (simulate ~domains:1 [| Paper_space.to_config p |]).(0) in
  let raw_many ?domains ps =
    simulate ?domains (Array.map Paper_space.to_config ps)
  in
  memoized ~many:raw_many (profile.name ^ ":" ^ metric_to_string metric) raw

let simulator ?obs ?trace_length ?seed profile =
  simulator_metric ?obs ?trace_length ?seed ~metric:Cpi profile

let evaluate_many ?domains t points =
  match t.eval_many with
  | Some f -> f ?domains points
  | None -> Parallel.map ?domains t.eval points

let synthetic_smooth ~dim =
  make "synthetic-smooth" (fun x ->
      if Array.length x <> dim then invalid_arg "synthetic_smooth: arity";
      let a = x.(0) and b = if dim > 1 then x.(1) else 0.5 in
      let c = if dim > 2 then x.(2) else 0.5 in
      1.
      +. exp (-2. *. a)
      +. (0.8 *. b *. b)
      +. (0.5 *. sin (3. *. c))
      +. (0.6 *. a *. b))

let synthetic_cliff ~dim =
  make "synthetic-cliff" (fun x ->
      if Array.length x <> dim then invalid_arg "synthetic_cliff: arity";
      let base = 1. +. (0.3 *. x.(min 1 (dim - 1))) in
      if x.(0) < 0.35 then base +. 2.5 else base)
