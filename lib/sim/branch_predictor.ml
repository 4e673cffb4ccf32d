type scheme = Gshare | Bimodal | Local | Tournament
type config = { scheme : scheme; history_bits : int; btb_entries : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ?(scheme = Gshare) ~history_bits ~btb_entries () =
  if history_bits < 1 || history_bits > 24 then
    invalid_arg "Branch_predictor.config: history_bits out of [1,24]";
  if not (is_pow2 btb_entries) then
    invalid_arg "Branch_predictor.config: btb_entries not a power of two";
  { scheme; history_bits; btb_entries }

let default_config = { scheme = Gshare; history_bits = 13; btb_entries = 4096 }

(* Saturating 2-bit counter tables, one byte per counter. *)
module Counters = struct
  type t = Bytes.t

  let create n = Bytes.make n '\002' (* weakly taken *)
  let taken t i = Char.code (Bytes.get t i) >= 2

  let train t i taken =
    let c = Char.code (Bytes.get t i) in
    let c' = if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1) in
    Bytes.set t i (Char.chr c')
end

type t = {
  cfg : config;
  pattern : Counters.t; (* gshare / local pattern table *)
  bimodal : Counters.t; (* bimodal table (also tournament component) *)
  chooser : Counters.t; (* tournament chooser: taken = use gshare *)
  local_history : int array; (* per-PC history registers *)
  btb_tags : int array;
  btb_targets : int array;
  mutable history : int;
  mutable lookups : int;
  mutable mispredicts : int;
}

let table_size cfg = 1 lsl cfg.history_bits
let local_entries = 1024

let create cfg =
  {
    cfg;
    pattern = Counters.create (table_size cfg);
    bimodal = Counters.create (table_size cfg);
    chooser = Counters.create (table_size cfg);
    local_history = Array.make local_entries 0;
    btb_tags = Array.make cfg.btb_entries (-1);
    btb_targets = Array.make cfg.btb_entries 0;
    history = 0;
    lookups = 0;
    mispredicts = 0;
  }

type prediction = { direction : bool; target_known : bool }

let mask t = table_size t.cfg - 1
let pc_index t ~pc = (pc lsr 2) land mask t
let gshare_index t ~pc = ((pc lsr 2) lxor t.history) land mask t
let local_slot ~pc = (pc lsr 2) land (local_entries - 1)
let local_index t ~pc = t.local_history.(local_slot ~pc) land mask t
let btb_index t ~pc = (pc lsr 2) land (t.cfg.btb_entries - 1)

let direction t ~pc =
  match t.cfg.scheme with
  | Gshare -> Counters.taken t.pattern (gshare_index t ~pc)
  | Bimodal -> Counters.taken t.bimodal (pc_index t ~pc)
  | Local -> Counters.taken t.pattern (local_index t ~pc)
  | Tournament ->
      if Counters.taken t.chooser (pc_index t ~pc) then
        Counters.taken t.pattern (gshare_index t ~pc)
      else Counters.taken t.bimodal (pc_index t ~pc)

let predict t ~pc =
  let idx = btb_index t ~pc in
  { direction = direction t ~pc; target_known = t.btb_tags.(idx) = pc }

let update t ~pc ~taken ~target =
  (match t.cfg.scheme with
  | Gshare -> Counters.train t.pattern (gshare_index t ~pc) taken
  | Bimodal -> Counters.train t.bimodal (pc_index t ~pc) taken
  | Local ->
      Counters.train t.pattern (local_index t ~pc) taken;
      let slot = local_slot ~pc in
      t.local_history.(slot) <-
        ((t.local_history.(slot) lsl 1) lor if taken then 1 else 0) land mask t
  | Tournament ->
      let g_right = Counters.taken t.pattern (gshare_index t ~pc) = taken in
      let b_right = Counters.taken t.bimodal (pc_index t ~pc) = taken in
      if g_right <> b_right then
        Counters.train t.chooser (pc_index t ~pc) g_right;
      Counters.train t.pattern (gshare_index t ~pc) taken;
      Counters.train t.bimodal (pc_index t ~pc) taken);
  t.history <- ((t.history lsl 1) lor if taken then 1 else 0) land mask t;
  if taken then begin
    let b = btb_index t ~pc in
    t.btb_tags.(b) <- pc;
    t.btb_targets.(b) <- target
  end

type kind = Conditional | Indirect

let mispredicted t ~kind ~pc ~taken =
  t.lookups <- t.lookups + 1;
  let p = predict t ~pc in
  let wrong =
    match kind with
    | Conditional -> p.direction <> taken
    | Indirect -> taken && not p.target_known
  in
  if wrong then t.mispredicts <- t.mispredicts + 1;
  wrong

type stats = { lookups : int; mispredicts : int }

let stats (t : t) : stats = { lookups = t.lookups; mispredicts = t.mispredicts }

let accuracy (t : t) =
  if t.lookups = 0 then 1.
  else 1. -. (float_of_int t.mispredicts /. float_of_int t.lookups)

let reset_stats (t : t) =
  t.lookups <- 0;
  t.mispredicts <- 0
