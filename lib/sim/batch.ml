module Parallel = Archpred_stats.Parallel

(* Batched multi-config simulation.

   [Processor.run] walks one (config, trace) pair and re-derives, on
   every run, work that depends only on the trace: opcode decode,
   dependency-distance resolution, the store chain, and — because the
   design space holds the predictor fixed — the entire branch-predictor
   interaction.  A batch run decodes the trace once into flat
   struct-of-arrays streams ([plan]), computes the mispredict stream
   once per distinct predictor configuration, and then fans the per-
   config pipeline walk out across the batch (optionally across
   domains).

   The per-config engine is C (batch_stubs.c): one call runs a whole
   config — warm-up, cycle loop, caches, DRAM and functional units —
   with the domain's runtime released, and returns integer counters
   from which [simulate] computes the result's floats with
   [Processor.run]'s expressions.  Its cycle loop is a transliteration
   of [Processor.run]'s with four structural accelerations, each argued
   semantics-preserving and enforced bit-identical (against the OCaml
   [Processor], [Memory], [Cache], [Dram] and [Fu_pool]) by the QCheck
   properties in [test_sim]:

   - shared streams: slot-local copies of opcode, operand producers and
     the previous-store chain are replaced by reads of the plan's
     trace-indexed arrays, which hold exactly the values the reference
     would have copied at dispatch;

   - event-driven issue: the reference re-scans every unissued window
     slot every cycle, mostly re-discovering that operands are not yet
     ready.  The engine instead tracks, per slot, how many producers
     are still unissued; when a producer issues, its completion time is
     pushed to the consumers through the plan's (config-independent)
     consumer adjacency, and a slot whose last producer resolves enters
     a small index-sorted candidate list with its exact earliest
     attempt cycle.  Each cycle attempts only candidates whose time has
     come, in instruction order — the identical attempt sequence (and
     therefore identical functional-unit, store-queue and memory side
     effects, and identical structural-stall accounting) as the
     reference window scan, at O(attempts) instead of O(window);

   - event skip: a cycle in which commit retired nothing, the issue
     scan found no operand-ready candidate (so no functional unit or
     memory state was touched) and fetch neither probed the L1I nor
     dispatched is "quiet": the reference would only bump per-cycle
     occupancy and stall counters and try again.  The engine computes a
     sound lower bound on the next cycle at which anything can change —
     the head's commit time, the earliest possible issue attempt, or
     the fetch restart — jumps there, and multiplies the per-cycle
     counters by the cycles skipped.  The bound is conservative (an
     issue attempt blocked by the reference's early scan exit simply
     re-enters the quiet path), the jump is capped at the cycle limit
     so [Cycle_limit_exceeded] fires at the same count, and during a
     quiet stretch every per-cycle counter increment is the same one,
     so multiplication reproduces the reference totals exactly;

   - flat functional units: each run keeps its unit state in arrays
     indexed by a class number per opcode (count, latency, the
     pipelined classes' grants and the cycle they count, the dividers'
     busy-until cycles).  Grants reset per class on the class's first
     attempt in a cycle — observably the same as
     [Fu_pool]'s reset of every class on the first attempt of the
     cycle, since a class's count is only read by its own attempts. *)

module A1 = Bigarray.Array1

type bytes_ba = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t
type int32_ba = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t
type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

(* One predictor configuration's interaction with the trace (see
   [branch_stream] below). *)
type bp_stream = { mis : bytes_ba; accuracy : float }

(* The engine in batch_stubs.c reads this record by field position: keep
   the order in step with its [F_*] enum (the engine never reads
   [streams], the last field).  Every stream is a Bigarray, outside the
   OCaml heap, so the engine can run with the runtime released. *)
type plan = {
  n : int;
  op : bytes_ba;  (* Opcode.to_int, lor [taken_bit] on a taken transfer *)
  dep : int32_ba;  (* 2n: absolute producers of both operands, -1 = none *)
  prev_store : int32_ba;  (* nearest older store index, -1 = none *)
  addr : int_ba;
  pc : int_ba;
  target : int_ba;
  cons_start : int32_ba;  (* CSR row starts into [cons], length n+1 *)
  cons : int32_ba;  (* consumer indices of each instruction *)
  streams : (Branch_predictor.config * bool * bp_stream) list Atomic.t;
      (* mispredict streams built so far, by predictor config and [warm] *)
}

let taken_bit = 16
let op_load = Opcode.to_int Opcode.Load
let op_store = Opcode.to_int Opcode.Store
let op_branch = Opcode.to_int Opcode.Branch
let op_jump = Opcode.to_int Opcode.Jump

let bytes_ba n : bytes_ba = A1.create Bigarray.int8_unsigned Bigarray.c_layout n
let int32_ba n : int32_ba = A1.create Bigarray.int32 Bigarray.c_layout n
let int_ba n : int_ba = A1.create Bigarray.int Bigarray.c_layout n

let plan trace =
  let n = Trace.length trace in
  (* Producer, store and consumer indices are int32; the consumer rows
     total at most 2n. *)
  if 2 * n > Int32.to_int Int32.max_int then
    invalid_arg "Batch.plan: trace too long";
  let op = bytes_ba n in
  let dep = int32_ba (2 * n) in
  let addr = int_ba n in
  let pc = int_ba n in
  let target = int_ba n in
  let prev_store = int32_ba n in
  let last_store = ref (-1) in
  let producer i d = if d > 0 then i - d else -1 in
  for i = 0 to n - 1 do
    let o = Opcode.to_int (Trace.op trace i) in
    A1.set op i (if Trace.taken trace i then o lor taken_bit else o);
    A1.set dep (2 * i) (Int32.of_int (producer i (Trace.dep1 trace i)));
    A1.set dep ((2 * i) + 1) (Int32.of_int (producer i (Trace.dep2 trace i)));
    A1.set addr i (Trace.addr trace i);
    A1.set pc i (Trace.pc trace i);
    A1.set target i (Trace.target trace i);
    A1.set prev_store i (-1l);
    if o = op_load || o = op_store then begin
      A1.set prev_store i (Int32.of_int !last_store);
      if o = op_store then last_store := i
    end
  done;
  (* Consumer adjacency (CSR): for every instruction, the indices of the
     instructions naming it as a producer.  An instruction naming the
     same producer through both operands appears twice in its row —
     matching the two pending-operand decrements the engine will make. *)
  let row = Array.make (n + 1) 0 in
  for k = 0 to (2 * n) - 1 do
    let d = Int32.to_int (A1.get dep k) in
    if d >= 0 then row.(d) <- row.(d) + 1
  done;
  let total = ref 0 in
  for i = 0 to n do
    let c = row.(i) in
    row.(i) <- !total;
    total := !total + c
  done;
  let cons_start = int32_ba (n + 1) in
  for i = 0 to n do
    A1.set cons_start i (Int32.of_int row.(i))
  done;
  let cons = int32_ba (Int.max 1 !total) in
  A1.fill cons 0l;
  for k = 0 to (2 * n) - 1 do
    let d = Int32.to_int (A1.get dep k) in
    if d >= 0 then begin
      A1.set cons row.(d) (Int32.of_int (k / 2));
      row.(d) <- row.(d) + 1
    end
  done;
  { n; op; dep; prev_store; addr; pc; target; cons_start; cons; streams = Atomic.make [] }

let length plan = plan.n

(* ------------------------------------------------------------------ *)
(* Shared branch-predictor streams                                    *)
(* ------------------------------------------------------------------ *)

(* At dispatch the reference queries and trains the predictor for every
   control instruction, in trace order (each instruction dispatches
   exactly once; there is no wrong-path execution), and the warm replay
   is also in trace order.  The predictor therefore sees an identical
   interaction for every config sharing a predictor configuration, so
   the per-branch mispredict outcomes and the final accuracy can be
   computed once per distinct [Branch_predictor.config] and shared. *)

let branch_stream p ~warm bcfg =
  let bp = Branch_predictor.create bcfg in
  let opcode i = A1.get p.op i land lnot taken_bit in
  let is_control i = opcode i = op_branch || opcode i = op_jump in
  let taken i = A1.get p.op i land taken_bit <> 0 in
  let update i =
    Branch_predictor.update bp ~pc:(A1.get p.pc i) ~taken:(taken i)
      ~target:(A1.get p.target i)
  in
  if warm then
    for i = 0 to p.n - 1 do
      if is_control i then update i
    done;
  Branch_predictor.reset_stats bp;
  let mis = bytes_ba p.n in
  A1.fill mis 0;
  for i = 0 to p.n - 1 do
    if is_control i then begin
      let kind =
        if opcode i = op_jump then Branch_predictor.Indirect
        else Branch_predictor.Conditional
      in
      if
        Branch_predictor.mispredicted bp ~kind ~pc:(A1.get p.pc i)
          ~taken:(taken i)
      then A1.set mis i 1;
      update i
    end
  done;
  { mis; accuracy = Branch_predictor.accuracy bp }

let same_scheme a b =
  match (a, b) with
  | Branch_predictor.Gshare, Branch_predictor.Gshare
  | Branch_predictor.Bimodal, Branch_predictor.Bimodal
  | Branch_predictor.Local, Branch_predictor.Local
  | Branch_predictor.Tournament, Branch_predictor.Tournament ->
      true
  | ( ( Branch_predictor.Gshare | Branch_predictor.Bimodal
      | Branch_predictor.Local | Branch_predictor.Tournament ),
      _ ) ->
      false

let same_branch (a : Branch_predictor.config) (b : Branch_predictor.config) =
  same_scheme a.Branch_predictor.scheme b.Branch_predictor.scheme
  && a.Branch_predictor.history_bits = b.Branch_predictor.history_bits
  && a.Branch_predictor.btb_entries = b.Branch_predictor.btb_entries

let rec find_stream bcfg warm = function
  | [] -> None
  | (b, w, s) :: rest ->
      if Bool.equal w warm && same_branch b bcfg then Some s
      else find_stream bcfg warm rest

(* The plan's stream for [bcfg] and [warm], built on first use.  Domains
   may run batches on one plan at once; a stream is a function of the
   plan and its key alone, so when two build the same one, either copy
   serves, and the first published is kept. *)
let stream_of p ~warm bcfg =
  match find_stream bcfg warm (Atomic.get p.streams) with
  | Some s -> s
  | None ->
      let s = branch_stream p ~warm bcfg in
      let rec publish () =
        let known = Atomic.get p.streams in
        match find_stream bcfg warm known with
        | Some first -> first
        | None ->
            if Atomic.compare_and_set p.streams known ((bcfg, warm, s) :: known) then s
            else publish ()
      in
      publish ()

(* ------------------------------------------------------------------ *)
(* Per-config engine                                                  *)
(* ------------------------------------------------------------------ *)

(* [simulate_stub plan mis params out] runs one config in batch_stubs.c
   with the runtime released, fills [out] with the [r_*] counters and
   returns a status: 0 done, 1 over the cycle limit (at [out.(r_cycles)]),
   2 out of memory, 3 a replacement scan off the end of its array (the
   reference's bounds failure). *)
external simulate_stub : plan -> bytes_ba -> int array -> int array -> int
  = "archpred_batch_simulate"

external trim : unit -> unit = "archpred_batch_trim" [@@noalloc]

(* The [out] layout, batch_stubs.c's [R_*] enum. *)
let r_cycles = 0
let r_il1_acc = 1
let r_il1_miss = 2
let r_dl1_acc = 3
let r_dl1_miss = 4
let r_l2_acc = 5
let r_l2_miss = 6
let r_dram_acc = 7
let r_dram_lat = 8
let r_occ_rob = 9
let r_occ_iq = 10
let r_occ_lsq = 11
let r_stall_rob = 12
let r_stall_iq = 13
let r_stall_lsq = 14
let r_stall_icache = 15
let r_stall_branch = 16
let r_stepped = 17
let r_skipped = 18
let r_attempts = 19
let r_walk_steps = 20
let r_count = 21

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let policy_code = function
  | Cache.Policy.Lru -> 0
  | Cache.Policy.Tree_plru -> 1
  | Cache.Policy.Qlru -> 2
  | Cache.Policy.Mru -> 3

(* What [Fu_pool] says about its classes, in [Fu_pool.all_classes]
   order, and the class of each opcode ([Opcode.to_int]-indexed, -1 for
   a nop). *)
let fu_pipelined =
  Array.map (fun c -> Bool.to_int (Fu_pool.is_pipelined c)) Fu_pool.all_classes

let fu_of_op =
  Array.init (List.length Opcode.all) (fun o ->
      match Fu_pool.class_of_opcode (Opcode.of_int o) with
      | Some c -> Fu_pool.class_index c
      | None -> -1)

(* The config as batch_stubs.c's [P_*] array, after the checks the
   engine relies on.  The cache configs go through [Cache.config], so a
   geometry the reference would reject raises the same
   [Invalid_argument] here. *)
let params cfg ~max_cycles ~warm =
  let sets (c : Cache.config) =
    c.Cache.size_bytes / (c.Cache.line_bytes * c.Cache.associativity)
  in
  let il1 = Config.il1_config cfg
  and dl1 = Config.dl1_config cfg
  and l2 = Config.l2_config cfg in
  let fu = cfg.Config.fu and dram = cfg.Config.dram in
  let units = Array.map (Fu_pool.count fu) Fu_pool.all_classes in
  let latencies = Array.map (Fu_pool.latency fu) Fu_pool.all_classes in
  if Array.exists (fun c -> c < 0) units then
    invalid_arg "Batch.run: functional-unit count < 0";
  (* The deferred-wakeup issue stage needs every completion to lie
     strictly past its issue cycle; a zero-latency functional unit (not
     constructible through [Config.make]) would break that. *)
  if Array.exists (fun l -> l < 1) latencies then
    invalid_arg "Batch.run: functional-unit latency < 1";
  if dram.Dram.banks < 1 then invalid_arg "Batch.run: DRAM banks < 1";
  Array.concat
    [
      [|
        cfg.Config.pipe_depth;
        cfg.Config.rob_size;
        cfg.Config.iq_size;
        cfg.Config.lsq_size;
        cfg.Config.fetch_width;
        cfg.Config.issue_width;
        cfg.Config.commit_width;
        cfg.Config.line_bytes;
        log2 cfg.Config.line_bytes;
        sets il1;
        il1.Cache.associativity;
        il1.Cache.latency;
        sets dl1;
        dl1.Cache.associativity;
        dl1.Cache.latency;
        sets l2;
        l2.Cache.associativity;
        l2.Cache.latency;
        policy_code cfg.Config.cache_policy;
        Bool.to_int cfg.Config.l2_prefetch;
        dram.Dram.base_latency;
        dram.Dram.banks;
        dram.Dram.bank_occupancy;
        dram.Dram.bus_occupancy;
      |];
      units;
      latencies;
      fu_pipelined;
      fu_of_op;
      [| Fu_pool.class_index Fu_pool.Mem_port; Bool.to_int warm; max_cycles |];
    ]

type counters = {
  cycles_stepped : int;
  cycles_skipped : int;
  issue_attempts : int;
  store_walk_steps : int;
  il1_accesses : int;
  dl1_accesses : int;
  l2_accesses : int;
}

(* [Cache.miss_rate] and [Dram.average_latency] on the engine's counts. *)
let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let simulate p params ~(stream : bp_stream) =
  let out = Array.make r_count 0 in
  (match simulate_stub p stream.mis params out with
  | 0 -> ()
  | 1 -> raise (Processor.Cycle_limit_exceeded out.(r_cycles))
  | 2 -> raise Out_of_memory
  | _ -> invalid_arg "index out of bounds");
  let n = p.n in
  let cycles = out.(r_cycles) in
  let cyclesf = float_of_int (Int.max 1 cycles) in
  ( {
      Processor.instructions = n;
      cycles;
      cpi = float_of_int cycles /. float_of_int (Int.max 1 n);
      branch_accuracy = stream.accuracy;
      il1_miss_rate = ratio out.(r_il1_miss) out.(r_il1_acc);
      dl1_miss_rate = ratio out.(r_dl1_miss) out.(r_dl1_acc);
      l2_miss_rate = ratio out.(r_l2_miss) out.(r_l2_acc);
      dram_accesses = out.(r_dram_acc);
      dram_avg_latency = ratio out.(r_dram_lat) out.(r_dram_acc);
      avg_rob_occupancy = float_of_int out.(r_occ_rob) /. cyclesf;
      avg_iq_occupancy = float_of_int out.(r_occ_iq) /. cyclesf;
      avg_lsq_occupancy = float_of_int out.(r_occ_lsq) /. cyclesf;
      dispatch_stall_rob = out.(r_stall_rob);
      dispatch_stall_iq = out.(r_stall_iq);
      dispatch_stall_lsq = out.(r_stall_lsq);
      fetch_stall_icache = out.(r_stall_icache);
      fetch_stall_branch = out.(r_stall_branch);
    },
    {
      cycles_stepped = out.(r_stepped);
      cycles_skipped = out.(r_skipped);
      issue_attempts = out.(r_attempts);
      store_walk_steps = out.(r_walk_steps);
      il1_accesses = out.(r_il1_acc);
      dl1_accesses = out.(r_dl1_acc);
      l2_accesses = out.(r_l2_acc);
    } )

(* ------------------------------------------------------------------ *)
(* Batch entry points                                                 *)
(* ------------------------------------------------------------------ *)

let run_plan_counted ?max_cycles ?(warm = true) ?domains p configs =
  let max_cycles =
    match max_cycles with Some m -> m | None -> (200 * p.n) + 10_000_000
  in
  let packed =
    Array.map
      (fun cfg ->
        (match Config.validate cfg with
        | Ok () -> ()
        | Error msg -> invalid_arg ("Batch.run: " ^ msg));
        params cfg ~max_cycles ~warm)
      configs
  in
  (* one mispredict stream per distinct predictor configuration and
     plan, fetched or built here, on the caller, so the fan-out below
     only reads shared state *)
  let streams = Array.map (fun cfg -> stream_of p ~warm cfg.Config.branch) configs in
  Parallel.init ?domains (Array.length configs) (fun i ->
      simulate p packed.(i) ~stream:streams.(i))

let run_plan ?max_cycles ?warm ?domains p configs =
  Array.map fst (run_plan_counted ?max_cycles ?warm ?domains p configs)

let run ?max_cycles ?warm ?domains configs trace =
  run_plan ?max_cycles ?warm ?domains (plan trace) configs

let cpi ?max_cycles ?warm ?domains configs trace =
  Array.map
    (fun (r : Processor.result) -> r.Processor.cpi)
    (run ?max_cycles ?warm ?domains configs trace)
