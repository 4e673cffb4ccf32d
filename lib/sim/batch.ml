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

   The per-config engine below is a transliteration of
   [Processor.run]'s cycle loop with three structural accelerations,
   each argued semantics-preserving and enforced bit-identical by the
   QCheck properties in [test_sim]:

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
     so multiplication reproduces the reference totals exactly. *)

type plan = {
  n : int;
  op : int array;  (* Opcode.to_int *)
  dep1 : int array;  (* absolute producer index, -1 = none *)
  dep2 : int array;
  addr : int array;
  pc : int array;
  target : int array;
  taken : Bytes.t;
  prev_store : int array;  (* nearest older store index, -1 = none *)
  cons_start : int array;  (* CSR row starts into [cons], length n+1 *)
  cons : int array;  (* consumer indices of each instruction *)
}

let op_load = Opcode.to_int Opcode.Load
let op_store = Opcode.to_int Opcode.Store
let op_branch = Opcode.to_int Opcode.Branch
let op_jump = Opcode.to_int Opcode.Jump
let op_nop = Opcode.to_int Opcode.Nop

let plan trace =
  let n = Trace.length trace in
  let op = Array.make n 0 in
  let dep1 = Array.make n (-1) in
  let dep2 = Array.make n (-1) in
  let addr = Array.make n 0 in
  let pc = Array.make n 0 in
  let target = Array.make n 0 in
  let taken = Bytes.make n '\000' in
  let prev_store = Array.make n (-1) in
  let last_store = ref (-1) in
  for i = 0 to n - 1 do
    let o = Opcode.to_int (Trace.op trace i) in
    op.(i) <- o;
    let d1 = Trace.dep1 trace i and d2 = Trace.dep2 trace i in
    dep1.(i) <- (if d1 > 0 then i - d1 else -1);
    dep2.(i) <- (if d2 > 0 then i - d2 else -1);
    addr.(i) <- Trace.addr trace i;
    pc.(i) <- Trace.pc trace i;
    target.(i) <- Trace.target trace i;
    if Trace.taken trace i then Bytes.set taken i '\001';
    if o = op_load || o = op_store then begin
      prev_store.(i) <- !last_store;
      if o = op_store then last_store := i
    end
  done;
  (* Consumer adjacency (CSR): for every instruction, the indices of the
     instructions naming it as a producer.  An instruction naming the
     same producer through both operands appears twice in its row —
     matching the two pending-operand decrements the engine will make. *)
  let cons_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    if dep1.(i) >= 0 then cons_start.(dep1.(i)) <- cons_start.(dep1.(i)) + 1;
    if dep2.(i) >= 0 then cons_start.(dep2.(i)) <- cons_start.(dep2.(i)) + 1
  done;
  let total = ref 0 in
  for i = 0 to n do
    let d = if i < n then cons_start.(i) else 0 in
    cons_start.(i) <- !total;
    total := !total + d
  done;
  let cons = Array.make (Int.max 1 !total) 0 in
  let fill = Array.make n 0 in
  for i = 0 to n - 1 do
    let push d =
      if d >= 0 then begin
        cons.(cons_start.(d) + fill.(d)) <- i;
        fill.(d) <- fill.(d) + 1
      end
    in
    push dep1.(i);
    push dep2.(i)
  done;
  { n; op; dep1; dep2; addr; pc; target; taken; prev_store; cons_start; cons }

let length plan = plan.n

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

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

type bp_stream = { mis : Bytes.t; accuracy : float }

let branch_stream p ~warm bcfg =
  let bp = Branch_predictor.create bcfg in
  let update i =
    Branch_predictor.update bp ~pc:p.pc.(i)
      ~taken:(Bytes.get p.taken i <> '\000')
      ~target:p.target.(i)
  in
  if warm then
    for i = 0 to p.n - 1 do
      if p.op.(i) = op_branch || p.op.(i) = op_jump then update i
    done;
  Branch_predictor.reset_stats bp;
  let mis = Bytes.make p.n '\000' in
  for i = 0 to p.n - 1 do
    let o = p.op.(i) in
    if o = op_branch || o = op_jump then begin
      let kind =
        if o = op_jump then Branch_predictor.Indirect
        else Branch_predictor.Conditional
      in
      if
        Branch_predictor.mispredicted bp ~kind ~pc:p.pc.(i)
          ~taken:(Bytes.get p.taken i <> '\000')
      then Bytes.set mis i '\001';
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

(* ------------------------------------------------------------------ *)
(* Per-config engine                                                  *)
(* ------------------------------------------------------------------ *)

let warm_memory p cfg mem =
  let line_shift = log2 cfg.Config.line_bytes in
  let cur_line = ref (-1) in
  for i = 0 to p.n - 1 do
    let line = p.pc.(i) lsr line_shift in
    if line <> !cur_line then begin
      cur_line := line;
      ignore (Memory.fetch mem ~cycle:0 ~addr:p.pc.(i))
    end;
    let o = p.op.(i) in
    if o = op_load then ignore (Memory.load mem ~cycle:0 ~addr:p.addr.(i))
    else if o = op_store then Memory.store mem ~cycle:0 ~addr:p.addr.(i)
  done;
  Memory.reset_stats mem

(* Store-queue scan for a load: walk the older-store chain from [pr].
   [-1] no older store in the window (go to memory); [-2] blocked on an
   unissued older store; [>= 0] forwarded, the store's completion.
   Completion cycles are never negative, so the int encoding is free of
   the allocation a variant result would cost — and the function is
   top-level so each call is closure-free.  [addr] is annotated [int] so
   the address match is not a polymorphic compare.  Accesses are
   unchecked: [pr] is guarded non-negative and below [head]'s window
   before every read, and [ps] is masked into the slot arrays. *)
let rec store_walk prev_store (addrs : int array) slot_issued slot_complete
    slot_mask head (addr : int) pr =
  if pr < head || pr < 0 then -1
  else
    let ps = pr land slot_mask in
    if Bytes.unsafe_get slot_issued ps = '\000' then -2
    else if Array.unsafe_get addrs pr = addr then
      Array.unsafe_get slot_complete ps
    else
      store_walk prev_store addrs slot_issued slot_complete slot_mask head
        addr (Array.unsafe_get prev_store pr)

type stall_reason = No_stall | Icache_stall | Branch_stall
type struct_stall = No_struct | Rob_full | Iq_full | Lsq_full

let simulate p cfg ~max_cycles ~warm ~(stream : bp_stream) =
  let n = p.n in
  let mem =
    Memory.create ~l2_prefetch:cfg.Config.l2_prefetch
      ~il1:(Config.il1_config cfg) ~dl1:(Config.dl1_config cfg)
      ~l2:(Config.l2_config cfg) ~dram:cfg.Config.dram ()
  in
  if warm then warm_memory p cfg mem;
  let fu = Fu_pool.create cfg.Config.fu in
  let rob = cfg.Config.rob_size in
  (* Slot arrays are sized to the next power of two so the instruction →
     slot map is a mask, not a division.  Any two in-flight indices
     differ by less than [rob] <= the array size, so the map stays
     injective over the live window — same residency as [i mod rob]. *)
  let slot_size =
    let rec up v = if v >= rob then v else up (v * 2) in
    up 1
  in
  let slot_mask = slot_size - 1 in
  let line_shift = log2 cfg.Config.line_bytes in
  (* Hot scalars, read every cycle: hoisted to locals so the loop does
     not chase the config record on each read. *)
  let commit_width = cfg.Config.commit_width in
  let issue_width = cfg.Config.issue_width in
  let fetch_width = cfg.Config.fetch_width in
  let iq_size = cfg.Config.iq_size in
  let lsq_size = cfg.Config.lsq_size in
  let il1_latency = cfg.Config.il1_latency in
  let pipe_depth = cfg.Config.pipe_depth in
  let mis = stream.mis in
  let issue_delay = Int.max 1 (pipe_depth / 4) in
  let fu_cls = Array.map Fu_pool.class_of_opcode (Array.map Opcode.of_int (Array.init 11 Fun.id)) in
  let fu_lat =
    Array.map
      (function None -> 0 | Some c -> Fu_pool.latency cfg.Config.fu c)
      fu_cls
  in

  let slot_complete = Array.make slot_size 0 in
  let slot_issued = Bytes.make slot_size '\000' in
  (* Wakeup state: [pend] producers still unissued per slot; [ready_t]
     the earliest attempt cycle known so far (dispatch earliest joined
     with every resolved producer's completion).  A slot whose [pend]
     hits zero enters the candidate list with its final [ready_t]. *)
  let pend = Array.make slot_size 0 in
  let ready_t = Array.make slot_size 0 in
  (* Index-sorted candidate list: dispatched, unissued slots all of
     whose producers have issued.  [cand_i] instruction indices
     ascending, [cand_t] their attempt cycles. *)
  let cand_i = Array.make rob 0 in
  let cand_t = Array.make rob 0 in
  let cand_n = ref 0 in
  (* Producers issued this cycle, whose consumers are notified after the
     candidate walk (their completions all lie in the future, so the
     deferral cannot unblock an attempt within the same cycle). *)
  let issued_now = Array.make rob 0 in
  (* Per-cycle scratch, hoisted out of the loop: without flambda every
     [ref] literal in the loop body is a heap allocation, and at one
     allocation per stage per cycle the GC traffic would rival the
     simulation itself. *)
  let commit_progress = ref false in
  let commit_quota = ref 0 in
  let commit_go = ref true in
  let attempts = ref 0 in
  let budget = ref 0 in
  let issued_n = ref 0 in
  let walk_w = ref 0 in
  let fetch_progress = ref false in
  let struct_stall = ref No_struct in
  let fetch_quota = ref 0 in
  let fetch_stop = ref false in
  let dis_t = ref 0 in
  let dis_pend = ref 0 in
  let ins_at = ref 0 in
  let next_issue = ref 0 in

  let head = ref 0 and tail = ref 0 in
  let iq_occ = ref 0 and lsq_occ = ref 0 in
  let committed = ref 0 in
  let cycle = ref 0 in
  let fetch_resume = ref 0 in
  let stall_reason = ref No_stall in
  let cur_line = ref (-1) in

  let stall_rob = ref 0 and stall_iq = ref 0 and stall_lsq = ref 0 in
  let stall_icache = ref 0 and stall_branch = ref 0 in
  let occ_rob = ref 0 and occ_iq = ref 0 and occ_lsq = ref 0 in

  (* All slot-array accesses below go through the [land slot_mask] map
     (or a value produced by it), so the unchecked reads stay in range.
     The map and the issued test are written out at each use: as local
     functions they would be real calls on every loop iteration. *)
  let cand_insert i t =
    ins_at := !cand_n;
    while !ins_at > 0 && cand_i.(!ins_at - 1) > i do
      decr ins_at
    done;
    Array.blit cand_i !ins_at cand_i (!ins_at + 1) (!cand_n - !ins_at);
    Array.blit cand_t !ins_at cand_t (!ins_at + 1) (!cand_n - !ins_at);
    cand_i.(!ins_at) <- i;
    cand_t.(!ins_at) <- t;
    incr cand_n
  in
  (* Producer [d] issued completing at [complete]: push the wakeup to
     its dispatched, still-unissued consumers. *)
  let notify d complete =
    (* [d] < n so the CSR row bounds hold; consumer indices are trace
       indices < n, and [js] is masked into the slot arrays. *)
    for k = p.cons_start.(d) to p.cons_start.(d + 1) - 1 do
      let j = Array.unsafe_get p.cons k in
      if j < !tail then begin
        let js = j land slot_mask in
        if Bytes.unsafe_get slot_issued js = '\000' then begin
          if complete > Array.unsafe_get ready_t js then
            Array.unsafe_set ready_t js complete;
          Array.unsafe_set pend js (Array.unsafe_get pend js - 1);
          if Array.unsafe_get pend js = 0 then
            cand_insert j (Array.unsafe_get ready_t js)
        end
      end
    done
  in
  let store_scan i =
    store_walk p.prev_store p.addr slot_issued slot_complete slot_mask !head
      p.addr.(i) p.prev_store.(i)
  in

  while !committed < n do
    let now = !cycle in
    if now > max_cycles then raise (Processor.Cycle_limit_exceeded now);

    (* ---- commit: in order, completed strictly before this cycle ---- *)
    commit_progress := false;
    commit_quota := commit_width;
    commit_go := true;
    while !commit_go && !commit_quota > 0 && !head < !tail do
      let i = !head in
      let s = i land slot_mask in
      if
        Bytes.unsafe_get slot_issued s <> '\000'
        && Array.unsafe_get slot_complete s < now
      then begin
        let o = Array.unsafe_get p.op i in
        if o = op_store then begin
          Memory.store mem ~cycle:now ~addr:(Array.unsafe_get p.addr i);
          decr lsq_occ
        end
        else if o = op_load then decr lsq_occ;
        head := i + 1;
        incr committed;
        decr commit_quota;
        commit_progress := true
      end
      else commit_go := false
    done;

    (* ---- issue: oldest-first out-of-order selection ----

       Walk the candidate list in instruction order, attempting every
       slot whose time has come while issue slots remain.  This is the
       reference's window scan with the never-ready slots elided: the
       scan attempts exactly the unissued slots that pass its dispatch-
       delay gate (monotone in the window, so any slot past the gate
       also has a future candidate time here) and its operand-ready
       gate (a candidate time in the future is precisely an operand
       completing later), in the same order, stopping at the same
       issue-width exhaustion. *)
    attempts := 0;
    budget := issue_width;
    issued_n := 0;
    if !cand_n > 0 then begin
      walk_w := 0;
      (* [r] and [walk_w] stay below [cand_n] <= in-flight count <= the
         candidate arrays' length. *)
      for r = 0 to !cand_n - 1 do
        let i = Array.unsafe_get cand_i r in
        let t = Array.unsafe_get cand_t r in
        let keep =
          if !budget > 0 && t <= now then begin
            incr attempts;
            let s = i land slot_mask in
            let o = Array.unsafe_get p.op i in
            let complete =
              if o = op_load then begin
                let sc = store_scan i in
                if sc = -2 then -1
                else if
                  not (Fu_pool.try_issue fu ~cycle:now Fu_pool.Mem_port)
                then -1
                else if sc >= 0 then Int.max (now + 1) (sc + 1)
                else
                  Memory.load mem ~cycle:now ~addr:(Array.unsafe_get p.addr i)
              end
              else if o = op_store then
                if Fu_pool.try_issue fu ~cycle:now Fu_pool.Mem_port then
                  now + 1
                else -1
              else
                match fu_cls.(o) with
                | None -> now
                | Some cls ->
                    if Fu_pool.try_issue fu ~cycle:now cls then
                      now + fu_lat.(o)
                    else -1
            in
            if complete >= 0 then begin
              Bytes.unsafe_set slot_issued s '\001';
              Array.unsafe_set slot_complete s complete;
              iq_occ := !iq_occ - 1;
              decr budget;
              if Bytes.unsafe_get mis i <> '\000' then
                fetch_resume := complete + pipe_depth;
              Array.unsafe_set issued_now !issued_n i;
              incr issued_n;
              false
            end
            else true
          end
          else true
        in
        if keep then begin
          Array.unsafe_set cand_i !walk_w i;
          Array.unsafe_set cand_t !walk_w t;
          incr walk_w
        end
      done;
      cand_n := !walk_w;
      (* Wakeups after the walk: every completion lies past [now], so
         no consumer could have been attempted this cycle anyway. *)
      for k = 0 to !issued_n - 1 do
        let d = Array.unsafe_get issued_now k in
        notify d (Array.unsafe_get slot_complete (d land slot_mask))
      done
    end;

    (* ---- fetch/dispatch: in order, up to fetch_width ---- *)
    fetch_progress := false;
    struct_stall := No_struct;
    if now >= !fetch_resume then begin
      stall_reason := No_stall;
      fetch_quota := fetch_width;
      fetch_stop := false;
      while (not !fetch_stop) && !fetch_quota > 0 && !tail < n do
        let i = !tail in
        if !tail - !head >= rob then begin
          incr stall_rob;
          struct_stall := Rob_full;
          fetch_stop := true
        end
        else begin
          let o = Array.unsafe_get p.op i in
          let needs_iq = o <> op_nop in
          let is_mem = o = op_load || o = op_store in
          if needs_iq && !iq_occ >= iq_size then begin
            incr stall_iq;
            struct_stall := Iq_full;
            fetch_stop := true
          end
          else if is_mem && !lsq_occ >= lsq_size then begin
            incr stall_lsq;
            struct_stall := Lsq_full;
            fetch_stop := true
          end
          else begin
            let pc = Array.unsafe_get p.pc i in
            let line = pc lsr line_shift in
            if line <> !cur_line then begin
              cur_line := line;
              fetch_progress := true;
              let ready = Memory.fetch mem ~cycle:now ~addr:pc in
              if ready > now + il1_latency then begin
                fetch_resume := ready;
                stall_reason := Icache_stall;
                fetch_stop := true
              end
            end;
            if not !fetch_stop then begin
              let s = i land slot_mask in
              if o = op_nop then begin
                (* Nops never reach the issue scan: the reference issues
                   them unconditionally at first attempt with completion
                   [now], observable only through commit order — which
                   marking them complete at dispatch reproduces. *)
                Bytes.unsafe_set slot_issued s '\001';
                Array.unsafe_set slot_complete s now
              end
              else begin
                Bytes.unsafe_set slot_issued s '\000';
                incr iq_occ;
                (* Snapshot the wakeup state.  A producer already issued
                   (or committed — its completion then lies in the past)
                   contributes its completion to the attempt cycle; an
                   unissued one is counted pending and will push its
                   completion through [notify] when it issues. *)
                dis_t := now + issue_delay;
                dis_pend := 0;
                let d1 = Array.unsafe_get p.dep1 i in
                if d1 >= 0 && d1 >= !head then begin
                  let ds = d1 land slot_mask in
                  if Bytes.unsafe_get slot_issued ds <> '\000' then begin
                    if Array.unsafe_get slot_complete ds > !dis_t then
                      dis_t := Array.unsafe_get slot_complete ds
                  end
                  else incr dis_pend
                end;
                let d2 = Array.unsafe_get p.dep2 i in
                if d2 >= 0 && d2 >= !head then begin
                  let ds = d2 land slot_mask in
                  if Bytes.unsafe_get slot_issued ds <> '\000' then begin
                    if Array.unsafe_get slot_complete ds > !dis_t then
                      dis_t := Array.unsafe_get slot_complete ds
                  end
                  else incr dis_pend
                end;
                Array.unsafe_set pend s !dis_pend;
                Array.unsafe_set ready_t s !dis_t;
                if !dis_pend = 0 then begin
                  (* [i] exceeds every index already listed, so a plain
                     append keeps the candidate list index-sorted. *)
                  Array.unsafe_set cand_i !cand_n i;
                  Array.unsafe_set cand_t !cand_n !dis_t;
                  incr cand_n
                end
              end;
              if is_mem then incr lsq_occ;
              if o = op_branch || o = op_jump then
                if Bytes.unsafe_get mis i <> '\000' then begin
                  fetch_resume := max_int;
                  stall_reason := Branch_stall;
                  fetch_stop := true
                end
                else if Bytes.unsafe_get p.taken i <> '\000' then
                  fetch_stop := true;
              tail := i + 1;
              decr fetch_quota;
              fetch_progress := true
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

    if !commit_progress || !attempts > 0 || !fetch_progress then incr cycle
    else begin
      (* Quiet cycle: nothing but counters changed, so every cycle up
         to (exclusive) the next possible event replays identically.
         Jump there and multiply the per-cycle counters. *)
      let next_commit =
        let hs = !head land slot_mask in
        if !head < !tail && Bytes.unsafe_get slot_issued hs <> '\000' then
          Array.unsafe_get slot_complete hs + 1
        else max_int
      in
      (* A quiet cycle means every candidate's time lies in the future;
         a non-candidate needs a producer to issue first, which cannot
         happen before the earliest candidate fires.  The earliest
         candidate time is therefore the exact next possible issue. *)
      next_issue := max_int;
      for r = 0 to !cand_n - 1 do
        if Array.unsafe_get cand_t r < !next_issue then
          next_issue := Array.unsafe_get cand_t r
      done;
      (* Fetch resumes at [fetch_resume] even after the last instruction
         is fetched: the stall counters below stop there, as the
         reference's per-cycle loop does. *)
      let next_fetch = if now < !fetch_resume then !fetch_resume else max_int in
      let target = Int.min next_commit (Int.min !next_issue next_fetch) in
      let target = Int.min target (max_cycles + 1) in
      let target = if target <= now then now + 1 else target in
      let k = target - now - 1 in
      if k > 0 then begin
        occ_rob := !occ_rob + (k * (!tail - !head));
        occ_iq := !occ_iq + (k * !iq_occ);
        occ_lsq := !occ_lsq + (k * !lsq_occ);
        if now < !fetch_resume then begin
          match !stall_reason with
          | Icache_stall -> stall_icache := !stall_icache + k
          | Branch_stall -> stall_branch := !stall_branch + k
          | No_stall -> ()
        end
        else begin
          match !struct_stall with
          | Rob_full -> stall_rob := !stall_rob + k
          | Iq_full -> stall_iq := !stall_iq + k
          | Lsq_full -> stall_lsq := !stall_lsq + k
          | No_struct -> ()
        end
      end;
      cycle := target
    end
  done;

  let cycles = !cycle in
  let cyclesf = float_of_int (Int.max 1 cycles) in
  let dram = Dram.stats (Memory.dram mem) in
  {
    Processor.instructions = n;
    cycles;
    cpi = float_of_int cycles /. float_of_int (Int.max 1 n);
    branch_accuracy = stream.accuracy;
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

(* ------------------------------------------------------------------ *)
(* Batch entry points                                                 *)
(* ------------------------------------------------------------------ *)

let run_plan ?max_cycles ?(warm = true) ?domains p configs =
  Array.iter
    (fun cfg ->
      (match Config.validate cfg with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Batch.run: " ^ msg));
      (* The deferred-wakeup issue stage needs every completion to lie
         strictly past its issue cycle; a zero-latency functional unit
         (not constructible through [Config.make]) would break that. *)
      let { Fu_pool.int_alu; int_mul; int_div; fp_add; fp_mul; fp_div;
            mem_port } =
        cfg.Config.fu
      in
      List.iter
        (fun (_, lat) ->
          if lat < 1 then
            invalid_arg "Batch.run: functional-unit latency < 1")
        [ int_alu; int_mul; int_div; fp_add; fp_mul; fp_div; mem_port ])
    configs;
  let max_cycles =
    match max_cycles with Some m -> m | None -> (200 * p.n) + 10_000_000
  in
  (* one mispredict stream per distinct predictor configuration,
     computed up front so the fan-out below only reads shared state *)
  let classes = ref [] in
  let streams =
    Array.map
      (fun cfg ->
        let bcfg = cfg.Config.branch in
        match
          List.find_opt (fun (b, _) -> same_branch b bcfg) !classes
        with
        | Some (_, s) -> s
        | None ->
            let s = branch_stream p ~warm bcfg in
            classes := (bcfg, s) :: !classes;
            s)
      configs
  in
  Parallel.init ?domains (Array.length configs) (fun i ->
      simulate p configs.(i) ~max_cycles ~warm ~stream:streams.(i))

let run ?max_cycles ?warm ?domains configs trace =
  run_plan ?max_cycles ?warm ?domains (plan trace) configs

let cpi ?max_cycles ?warm ?domains configs trace =
  Array.map
    (fun (r : Processor.result) -> r.Processor.cpi)
    (run ?max_cycles ?warm ?domains configs trace)
