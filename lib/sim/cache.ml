type config = {
  size_bytes : int;
  line_bytes : int;
  associativity : int;
  latency : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ~size_bytes ~line_bytes ~associativity ~latency () =
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.config: line size not a power of two";
  if associativity <= 0 then invalid_arg "Cache.config: associativity <= 0";
  if latency < 1 then invalid_arg "Cache.config: latency < 1";
  if size_bytes < line_bytes * associativity then
    invalid_arg "Cache.config: fewer than one set";
  if size_bytes mod (line_bytes * associativity) <> 0 then
    invalid_arg "Cache.config: size not a multiple of line * associativity";
  { size_bytes; line_bytes; associativity; latency }

type t = {
  cfg : config;
  set_count : int;
  set_mask : int; (* set_count - 1 when a power of two, else -1 *)
  line_shift : int;
  tags : int array; (* set * ways + way; -1 = invalid *)
  age : int array; (* per-line LRU stamp: the clock at its last touch *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create cfg =
  let set_count = cfg.size_bytes / (cfg.line_bytes * cfg.associativity) in
  {
    cfg;
    set_count;
    set_mask = (if is_pow2 set_count then set_count - 1 else -1);
    line_shift = log2 cfg.line_bytes;
    tags = Array.make (set_count * cfg.associativity) (-1);
    age = Array.make (set_count * cfg.associativity) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

let latency t = t.cfg.latency
let sets t = t.set_count

(* Any set count is allowed (sizes need not be powers of two), so the set
   index is a modulo — masked instead when the count is a power of two,
   since this sits on the hot path of every simulated access.  The tag is
   the full line number; [locate_set] is kept tuple-free (one call per
   access, so a boxed pair would be one allocation per access). *)
let locate_set t line =
  if t.set_mask >= 0 then line land t.set_mask else line mod t.set_count

(* The way scans are top-level and fully applied: a [let rec] nested in
   its caller captures its environment in a closure allocated on every
   call, which on the hottest path (one [find] per access) costs more
   than the scan itself.  The [int] annotations are load-bearing too:
   inferred polymorphic, every [=] below would call [caml_equal]. *)
let rec find_way (tags : int array) base ways (tag : int) w =
  (* [base + w] < set_count * ways = length tags while [w] < [ways]. *)
  if w >= ways then -1
  else if Array.unsafe_get tags (base + w) = tag then base + w
  else find_way tags base ways tag (w + 1)

let find t set tag =
  let ways = t.cfg.associativity in
  find_way t.tags (set * ways) ways tag 0

let access t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let tag = addr lsr t.line_shift in
  let set = locate_set t tag in
  let slot = find t set tag in
  let ways = t.cfg.associativity in
  let base = set * ways in
  if slot >= 0 then begin
    t.age.(slot) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* Fill, evicting the LRU way of the set.  Invalid ways keep stamp 0,
       so they fill before any valid line is evicted. *)
    let victim = ref base in
    for w = 1 to ways - 1 do
      if t.age.(base + w) < t.age.(!victim) then victim := base + w
    done;
    t.tags.(!victim) <- tag;
    t.age.(!victim) <- t.clock;
    false
  end

let probe t addr =
  let tag = addr lsr t.line_shift in
  find t (locate_set t tag) tag >= 0

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.age 0 (Array.length t.age) 0

type stats = { accesses : int; misses : int }

let stats (t : t) : stats = { accesses = t.accesses; misses = t.misses }

let miss_rate (t : t) =
  if t.accesses = 0 then 0.
  else float_of_int t.misses /. float_of_int t.accesses

let reset_stats (t : t) =
  t.accesses <- 0;
  t.misses <- 0
