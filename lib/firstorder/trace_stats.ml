module Sim = Archpred_sim
module Trace = Sim.Trace
module Opcode = Sim.Opcode

type t = { trace : Trace.t }

let analyse trace = { trace }

let ipc_of_window t ~exec_latency ~w =
  if w < 1 then invalid_arg "Trace_stats.ipc_of_window: w < 1";
  let trace = t.trace in
  let n = Trace.length trace in
  if n = 0 then invalid_arg "Trace_stats.ipc_of_window: empty trace";
  (* Per-window data-flow critical path.  Issue times are relative to the
     window start; producers outside the window are ready at time 0. *)
  let finish = Array.make w 0 in
  let total_cycles = ref 0 in
  let start = ref 0 in
  while !start < n do
    let stop = min n (!start + w) in
    let drain = ref 1 in
    for i = !start to stop - 1 do
      let ready d =
        if d <= 0 then 0
        else
          let p = i - d in
          if p < !start then 0 else finish.(p - !start)
      in
      let issue = max (ready (Trace.dep1 trace i)) (ready (Trace.dep2 trace i)) in
      let f = issue + exec_latency (Trace.op trace i) in
      finish.(i - !start) <- f;
      if f > !drain then drain := f
    done;
    total_cycles := !total_cycles + !drain;
    start := stop
  done;
  float_of_int n /. float_of_int (max 1 !total_cycles)

type events = {
  branch_mispredicts : int;
  il1_misses : int;
  il1_to_memory : int;
  dl1_misses : int;
  dl1_to_memory : int;
  load_count : int;
  memory_mlp : float;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let count_events t cfg =
  let trace = t.trace in
  let n = Trace.length trace in
  let il1 = Sim.Cache.create (Sim.Config.il1_config cfg) in
  let dl1 = Sim.Cache.create (Sim.Config.dl1_config cfg) in
  let l2 = Sim.Cache.create (Sim.Config.l2_config cfg) in
  let bp = Sim.Branch_predictor.create cfg.Sim.Config.branch in
  let line_shift = log2 cfg.Sim.Config.line_bytes in
  let w = cfg.Sim.Config.rob_size in
  let counting = ref false in
  let branch_mispredicts = ref 0 in
  let il1_misses = ref 0 and il1_to_memory = ref 0 in
  let dl1_misses = ref 0 and dl1_to_memory = ref 0 in
  let load_count = ref 0 in
  (* Long-miss overlap: group DRAM load misses that fall within one window
     of each other; a miss whose address producer is itself a recent long
     miss starts a new serial interval (pointer chasing cannot overlap). *)
  let long_miss_marks = Hashtbl.create 256 in
  let last_long_miss = ref min_int in
  let long_total = ref 0 and long_intervals = ref 0 in
  let pass count =
    counting := count;
    let cur_line = ref (-1) in
    for i = 0 to n - 1 do
      let line = Trace.pc trace i lsr line_shift in
      if line <> !cur_line then begin
        cur_line := line;
        if not (Sim.Cache.access il1 (Trace.pc trace i)) then begin
          let in_l2 = Sim.Cache.access l2 (Trace.pc trace i) in
          if count then
            if in_l2 then incr il1_misses else incr il1_to_memory
        end
      end;
      match Trace.op trace i with
      | Opcode.Load ->
          if count then incr load_count;
          let addr = Trace.addr trace i in
          if not (Sim.Cache.access dl1 addr) then begin
            let in_l2 = Sim.Cache.access l2 addr in
            if count then
              if in_l2 then incr dl1_misses
              else begin
                incr dl1_to_memory;
                incr long_total;
                let producer = i - Trace.dep1 trace i in
                let chained =
                  Trace.dep1 trace i > 0
                  && Hashtbl.mem long_miss_marks producer
                  && i - producer <= w
                in
                let overlapped = (not chained) && i - !last_long_miss <= w in
                if not overlapped then incr long_intervals;
                Hashtbl.replace long_miss_marks i ();
                last_long_miss := i
              end
          end
      | Opcode.Store ->
          let addr = Trace.addr trace i in
          if not (Sim.Cache.access dl1 addr) then
            ignore (Sim.Cache.access l2 addr)
      | Opcode.Branch | Opcode.Jump ->
          let pc = Trace.pc trace i in
          let taken = Trace.taken trace i in
          let kind =
            if Trace.op trace i = Opcode.Jump then Sim.Branch_predictor.Indirect
            else Sim.Branch_predictor.Conditional
          in
          if count then begin
            if Sim.Branch_predictor.mispredicted bp ~kind ~pc ~taken then
              incr branch_mispredicts
          end;
          Sim.Branch_predictor.update bp ~pc ~taken ~target:(Trace.target trace i)
      | Opcode.Ialu | Opcode.Imul | Opcode.Idiv | Opcode.Fadd | Opcode.Fmul
      | Opcode.Fdiv | Opcode.Nop ->
          ()
    done
  in
  (* warm pass, then counting pass: same steady-state treatment as the
     timing simulator *)
  pass false;
  pass true;
  {
    branch_mispredicts = !branch_mispredicts;
    il1_misses = !il1_misses;
    il1_to_memory = !il1_to_memory;
    dl1_misses = !dl1_misses;
    dl1_to_memory = !dl1_to_memory;
    load_count = !load_count;
    memory_mlp =
      (if !long_intervals = 0 then 1.
       else float_of_int !long_total /. float_of_int !long_intervals);
  }
