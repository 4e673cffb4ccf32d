type stall_reason = No_stall | Icache_stall | Branch_stall

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Replay the trace's reference streams through the caches and the branch
   predictor without timing, then clear statistics.  The synthetic traces
   are short relative to the working sets they exercise, so an unwarmed run
   would be dominated by compulsory misses that the paper's
   to-completion MinneSPEC runs do not see; warming approximates
   steady-state cache and predictor contents. *)
let warm_structures cfg mem bp trace =
  let n = Trace.length trace in
  let line_shift = log2 cfg.Config.line_bytes in
  let cur_line = ref (-1) in
  for i = 0 to n - 1 do
    let line = Trace.pc trace i lsr line_shift in
    if line <> !cur_line then begin
      cur_line := line;
      ignore (Memory.fetch mem ~cycle:0 ~addr:(Trace.pc trace i))
    end;
    match Trace.op trace i with
    | Opcode.Load -> ignore (Memory.load mem ~cycle:0 ~addr:(Trace.addr trace i))
    | Opcode.Store -> Memory.store mem ~cycle:0 ~addr:(Trace.addr trace i)
    | Opcode.Branch | Opcode.Jump ->
        Branch_predictor.update bp ~pc:(Trace.pc trace i)
          ~taken:(Trace.taken trace i) ~target:(Trace.target trace i)
    | Opcode.Ialu | Opcode.Imul | Opcode.Idiv | Opcode.Fadd | Opcode.Fmul
    | Opcode.Fdiv | Opcode.Nop ->
        ()
  done;
  Memory.reset_stats mem;
  Branch_predictor.reset_stats bp

let run ?max_cycles ?(warm = true) cfg trace =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Processor.run: " ^ msg));
  let n = Trace.length trace in
  let max_cycles =
    match max_cycles with Some m -> m | None -> (200 * n) + 10_000_000
  in
  let mem =
    Memory.create ~l2_prefetch:cfg.Config.l2_prefetch
      ~il1:(Config.il1_config cfg) ~dl1:(Config.dl1_config cfg)
      ~l2:(Config.l2_config cfg) ~dram:cfg.Config.dram ()
  in
  let bp = Branch_predictor.create cfg.Config.branch in
  if warm then warm_structures cfg mem bp trace;
  let fu = Fu_pool.create cfg.Config.fu in
  let rob = cfg.Config.rob_size in
  let line_shift = log2 cfg.Config.line_bytes in
  (* Decode-to-issue delay: a small share of the front-end depth; the bulk
     of the depth parameter's cost is the post-misprediction refill. *)
  let issue_delay = max 1 (cfg.Config.pipe_depth / 4) in

  (* In-flight window state, ring-indexed by trace index mod rob_size.
     Dispatch and commit are in order, so the window is the contiguous
     trace range [head, tail). *)
  let slot_complete = Array.make rob 0 in
  let slot_issued = Bytes.make rob '\000' in
  let slot_earliest = Array.make rob 0 in
  let slot_op = Array.make rob 0 in
  let slot_dep1 = Array.make rob (-1) in
  let slot_dep2 = Array.make rob (-1) in
  let slot_prev_store = Array.make rob (-1) in
  let slot_mispredict = Bytes.make rob '\000' in

  let head = ref 0 and tail = ref 0 in
  let iq_occ = ref 0 and lsq_occ = ref 0 in
  let committed = ref 0 in
  let cycle = ref 0 in
  let fetch_resume = ref 0 in
  let stall_reason = ref No_stall in
  let last_store = ref (-1) in
  let cur_line = ref (-1) in

  let stall_rob = ref 0 and stall_iq = ref 0 and stall_lsq = ref 0 in
  let stall_icache = ref 0 and stall_branch = ref 0 in
  let occ_rob = ref 0 and occ_iq = ref 0 and occ_lsq = ref 0 in

  let slot i = i mod rob in
  let issued s = Bytes.get slot_issued s <> '\000' in
  let operand_ready now p =
    p < 0 || p < !head
    ||
    let s = slot p in
    issued s && slot_complete.(s) <= now
  in
  (* Walk the chain of older in-flight stores for a load at trace index
     [i]: the load is blocked while any older store's address is unknown
     (store unissued); otherwise it forwards from the nearest same-address
     store or goes to memory. *)
  let store_scan i =
    let addr = Trace.addr trace i in
    let rec walk p =
      if p < !head || p < 0 then `Memory
      else
        let ps = slot p in
        if not (issued ps) then `Blocked
        else if Trace.addr trace p = addr then `Forward slot_complete.(ps)
        else walk slot_prev_store.(ps)
    in
    walk slot_prev_store.(slot i)
  in

  while !committed < n do
    let now = !cycle in
    if now > max_cycles then raise (Batch.Cycle_limit_exceeded now);

    (* ---- commit: in order, completed strictly before this cycle ---- *)
    let quota = ref cfg.Config.commit_width in
    let continue_commit = ref true in
    while !continue_commit && !quota > 0 && !head < !tail do
      let i = !head in
      let s = slot i in
      if issued s && slot_complete.(s) < now then begin
        let op = Opcode.of_int slot_op.(s) in
        (match op with
        | Opcode.Store ->
            Memory.store mem ~cycle:now ~addr:(Trace.addr trace i);
            decr lsq_occ
        | Opcode.Load -> decr lsq_occ
        | Opcode.Ialu | Opcode.Imul | Opcode.Idiv | Opcode.Fadd
        | Opcode.Fmul | Opcode.Fdiv | Opcode.Branch | Opcode.Jump
        | Opcode.Nop ->
            ());
        head := i + 1;
        incr committed;
        decr quota
      end
      else continue_commit := false
    done;

    (* ---- issue: oldest-first out-of-order selection ---- *)
    let budget = ref cfg.Config.issue_width in
    (try
       let i = ref !head in
       while !budget > 0 && !i < !tail do
         let s = slot !i in
         if not (issued s) then begin
           (* Dispatch order makes earliest-issue cycles monotone in the
              window, so the first too-young slot ends the scan. *)
           if slot_earliest.(s) > now then raise Exit;
           if
             operand_ready now slot_dep1.(s)
             && operand_ready now slot_dep2.(s)
           then begin
             let op = Opcode.of_int slot_op.(s) in
             let complete =
               match op with
               | Opcode.Load -> (
                   match store_scan !i with
                   | `Blocked -> -1
                   | `Forward c ->
                       if Fu_pool.try_issue fu ~cycle:now Fu_pool.Mem_port
                       then Int.max (now + 1) (c + 1)
                       else -1
                   | `Memory ->
                       if Fu_pool.try_issue fu ~cycle:now Fu_pool.Mem_port
                       then Memory.load mem ~cycle:now ~addr:(Trace.addr trace !i)
                       else -1)
               | Opcode.Store ->
                   if Fu_pool.try_issue fu ~cycle:now Fu_pool.Mem_port then
                     now + 1
                   else -1
               | Opcode.Nop -> now
               | Opcode.Ialu | Opcode.Imul | Opcode.Idiv | Opcode.Fadd
               | Opcode.Fmul | Opcode.Fdiv | Opcode.Branch | Opcode.Jump
                 -> (
                   match Fu_pool.class_of_opcode op with
                   | None -> now
                   | Some cls ->
                       if Fu_pool.try_issue fu ~cycle:now cls then
                         now + Fu_pool.latency cfg.Config.fu cls
                       else -1)
             in
             if complete >= 0 then begin
               Bytes.set slot_issued s '\001';
               slot_complete.(s) <- complete;
               iq_occ := !iq_occ - 1;
               decr budget;
               if Bytes.get slot_mispredict s <> '\000' then
                 (* The mispredicted branch now has a resolution time:
                    fetch restarts after redirect plus front-end refill. *)
                 fetch_resume := complete + cfg.Config.pipe_depth
             end
           end
         end;
         incr i
       done
     with Exit -> ());

    (* ---- fetch/dispatch: in order, up to fetch_width ---- *)
    if now >= !fetch_resume then begin
      stall_reason := No_stall;
      let quota = ref cfg.Config.fetch_width in
      let stop = ref false in
      while (not !stop) && !quota > 0 && !tail < n do
        let i = !tail in
        if !tail - !head >= rob then begin
          incr stall_rob;
          stop := true
        end
        else begin
          let op = Trace.op trace i in
          let needs_iq = op <> Opcode.Nop in
          let is_mem = Opcode.is_memory op in
          if needs_iq && !iq_occ >= cfg.Config.iq_size then begin
            incr stall_iq;
            stop := true
          end
          else if is_mem && !lsq_occ >= cfg.Config.lsq_size then begin
            incr stall_lsq;
            stop := true
          end
          else begin
            let line = Trace.pc trace i lsr line_shift in
            if line <> !cur_line then begin
              cur_line := line;
              let ready = Memory.fetch mem ~cycle:now ~addr:(Trace.pc trace i) in
              if ready > now + cfg.Config.il1_latency then begin
                (* L1I miss: this instruction waits for the fill. *)
                fetch_resume := ready;
                stall_reason := Icache_stall;
                stop := true
              end
            end;
            if not !stop then begin
              let s = slot i in
              slot_op.(s) <- Opcode.to_int op;
              slot_earliest.(s) <- now + issue_delay;
              let dep d = if d > 0 then i - d else -1 in
              slot_dep1.(s) <- dep (Trace.dep1 trace i);
              slot_dep2.(s) <- dep (Trace.dep2 trace i);
              Bytes.set slot_mispredict s '\000';
              if op = Opcode.Nop then begin
                Bytes.set slot_issued s '\001';
                slot_complete.(s) <- now
              end
              else begin
                Bytes.set slot_issued s '\000';
                incr iq_occ
              end;
              if is_mem then begin
                slot_prev_store.(s) <- !last_store;
                if op = Opcode.Store then last_store := i;
                incr lsq_occ
              end;
              if Opcode.is_control op then begin
                let pc = Trace.pc trace i in
                let taken = Trace.taken trace i in
                let kind =
                  if op = Opcode.Jump then Branch_predictor.Indirect
                  else Branch_predictor.Conditional
                in
                let mispredicted =
                  Branch_predictor.mispredicted bp ~kind ~pc ~taken
                in
                Branch_predictor.update bp ~pc ~taken
                  ~target:(Trace.target trace i);
                if mispredicted then begin
                  Bytes.set slot_mispredict s '\001';
                  (* Fetch halts until this branch resolves at issue. *)
                  fetch_resume := max_int;
                  stall_reason := Branch_stall;
                  stop := true
                end
                else if taken then
                  (* A taken transfer ends the cycle's fetch group. *)
                  stop := true
              end;
              tail := i + 1;
              decr quota
            end
          end
        end
      done
    end
    else begin
      match !stall_reason with
      | Icache_stall -> incr stall_icache
      | Branch_stall -> incr stall_branch
      | No_stall -> ()
    end;

    occ_rob := !occ_rob + (!tail - !head);
    occ_iq := !occ_iq + !iq_occ;
    occ_lsq := !occ_lsq + !lsq_occ;
    incr cycle
  done;

  let cycles = !cycle in
  let cyclesf = float_of_int (max 1 cycles) in
  let dram = Dram.stats (Memory.dram mem) in
  {
    Batch.instructions = n;
    cycles;
    cpi = float_of_int cycles /. float_of_int (max 1 n);
    branch_accuracy = Branch_predictor.accuracy bp;
    il1_miss_rate = Cache.miss_rate (Memory.il1 mem);
    dl1_miss_rate = Cache.miss_rate (Memory.dl1 mem);
    l2_miss_rate = Cache.miss_rate (Memory.l2 mem);
    dram_accesses = dram.Dram.accesses;
    dram_avg_latency = Dram.average_latency (Memory.dram mem);
    avg_rob_occupancy = float_of_int !occ_rob /. cyclesf;
    avg_iq_occupancy = float_of_int !occ_iq /. cyclesf;
    avg_lsq_occupancy = float_of_int !occ_lsq /. cyclesf;
    dispatch_stall_rob = !stall_rob;
    dispatch_stall_iq = !stall_iq;
    dispatch_stall_lsq = !stall_lsq;
    fetch_stall_icache = !stall_icache;
    fetch_stall_branch = !stall_branch;
  }

let cpi ?max_cycles ?warm cfg trace = (run ?max_cycles ?warm cfg trace).Batch.cpi
