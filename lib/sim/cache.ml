module Policy = struct
  type t = Lru | Tree_plru | Qlru | Mru

  let all = [| Lru; Tree_plru; Qlru; Mru |]

  let to_string = function
    | Lru -> "lru"
    | Tree_plru -> "tree-plru"
    | Qlru -> "qlru"
    | Mru -> "mru"

  let of_string = function
    | "lru" -> Some Lru
    | "tree-plru" | "tree_plru" -> Some Tree_plru
    | "qlru" -> Some Qlru
    | "mru" -> Some Mru
    | _ -> None
end

type config = {
  size_bytes : int;
  line_bytes : int;
  associativity : int;
  latency : int;
  policy : Policy.t;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ?(policy = Policy.Lru) ~size_bytes ~line_bytes ~associativity
    ~latency () =
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.config: line size not a power of two";
  if associativity <= 0 then invalid_arg "Cache.config: associativity <= 0";
  if latency < 1 then invalid_arg "Cache.config: latency < 1";
  if size_bytes < line_bytes * associativity then
    invalid_arg "Cache.config: fewer than one set";
  if size_bytes mod (line_bytes * associativity) <> 0 then
    invalid_arg "Cache.config: size not a multiple of line * associativity";
  (match policy with
  | Policy.Tree_plru ->
      if not (is_pow2 associativity) then
        invalid_arg "Cache.config: tree-plru needs power-of-two associativity";
      if associativity > 63 then
        invalid_arg "Cache.config: tree-plru supports at most 63 ways"
  | Policy.Lru | Policy.Qlru | Policy.Mru -> ());
  { size_bytes; line_bytes; associativity; latency; policy }

type t = {
  cfg : config;
  set_count : int;
  set_mask : int; (* set_count - 1 when a power of two, else -1 *)
  line_shift : int;
  tags : int array; (* set * ways + way; -1 = invalid *)
  age : int array; (* per-line recency state; meaning depends on policy *)
  tree : int array; (* tree-plru: one bit-packed decision tree per set *)
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
    tree =
      (match cfg.policy with
      | Policy.Tree_plru -> Array.make set_count 0
      | Policy.Lru | Policy.Qlru | Policy.Mru -> [||]);
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

let rec invalid_way tags base ways w =
  if w >= ways then -1
  else if tags.(base + w) = -1 then w
  else invalid_way tags base ways (w + 1)

(* First invalid way of a set, or -1.  The non-LRU policies fill invalid
   ways left to right before consulting replacement state; plain LRU gets
   the same effect from its zero-initialised age stamps. *)
let first_invalid t base = invalid_way t.tags base t.cfg.associativity 0

(* --- Tree-PLRU -------------------------------------------------------
   One bit per internal node of a balanced binary tree over the ways,
   packed into an int per set; heap numbering, root = node 1.  Bit 0
   means the victim path descends left, 1 means right.  Touching a way
   flips every node on its root path to point at the *other* subtree. *)

let tree_touch t set w =
  let ways = t.cfg.associativity in
  let bits = ref t.tree.(set) in
  let node = ref 1 in
  let lo = ref 0 in
  let span = ref ways in
  while !span > 1 do
    let half = !span / 2 in
    if w - !lo < half then begin
      (* used the left half: victim path should go right *)
      bits := !bits lor (1 lsl !node);
      node := 2 * !node
    end
    else begin
      bits := !bits land lnot (1 lsl !node);
      lo := !lo + half;
      node := (2 * !node) + 1
    end;
    span := half
  done;
  t.tree.(set) <- !bits

let tree_victim t set =
  let ways = t.cfg.associativity in
  let bits = t.tree.(set) in
  let node = ref 1 in
  let lo = ref 0 in
  let span = ref ways in
  while !span > 1 do
    let half = !span / 2 in
    if bits land (1 lsl !node) = 0 then node := 2 * !node
    else begin
      lo := !lo + half;
      node := (2 * !node) + 1
    end;
    span := half
  done;
  !lo

(* Leftmost way of [base]'s set whose age equals [want] — the caller
   guarantees one exists.  Annotated [int] so [=] is an integer compare. *)
let rec age_scan (age : int array) base (want : int) w =
  if age.(base + w) = want then w else age_scan age base want (w + 1)

(* --- QLRU ------------------------------------------------------------
   Quad-age LRU in the style of the reverse-engineered Intel policies:
   2-bit age per line.  Hits promote to age 0, fills insert at age 1,
   the victim is the leftmost line of age 3, and when no line has age 3
   every age in the set is raised just enough to create one. *)

let qlru_victim t base =
  let ways = t.cfg.associativity in
  let max_age = ref 0 in
  for w = 0 to ways - 1 do
    if t.age.(base + w) > !max_age then max_age := t.age.(base + w)
  done;
  let bump = 3 - !max_age in
  if bump > 0 then
    for w = 0 to ways - 1 do
      t.age.(base + w) <- t.age.(base + w) + bump
    done;
  age_scan t.age base 3 0

(* --- MRU (bit-PLRU) --------------------------------------------------
   One MRU bit per line, set on every touch.  When the last zero bit of
   a set would disappear, all other bits reset — the classic bit-PLRU
   "global flip".  The victim is the leftmost line with a clear bit. *)

let mru_touch t base w =
  let ways = t.cfg.associativity in
  t.age.(base + w) <- 1;
  let all_set = ref true in
  for i = 0 to ways - 1 do
    if t.age.(base + i) = 0 then all_set := false
  done;
  if !all_set then begin
    Array.fill t.age base ways 0;
    t.age.(base + w) <- 1
  end

let mru_victim t base = age_scan t.age base 0 0

let access t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let tag = addr lsr t.line_shift in
  let set = locate_set t tag in
  let slot = find t set tag in
  let ways = t.cfg.associativity in
  let base = set * ways in
  match t.cfg.policy with
  | Policy.Lru ->
      if slot >= 0 then begin
        t.age.(slot) <- t.clock;
        true
      end
      else begin
        t.misses <- t.misses + 1;
        (* Fill, evicting the LRU way of the set. *)
        let victim = ref base in
        for w = 1 to ways - 1 do
          if t.age.(base + w) < t.age.(!victim) then victim := base + w
        done;
        t.tags.(!victim) <- tag;
        t.age.(!victim) <- t.clock;
        false
      end
  | Policy.Tree_plru ->
      if slot >= 0 then begin
        tree_touch t set (slot - base);
        true
      end
      else begin
        t.misses <- t.misses + 1;
        let w =
          match first_invalid t base with -1 -> tree_victim t set | w -> w
        in
        t.tags.(base + w) <- tag;
        tree_touch t set w;
        false
      end
  | Policy.Qlru ->
      if slot >= 0 then begin
        t.age.(slot) <- 0;
        true
      end
      else begin
        t.misses <- t.misses + 1;
        let w =
          match first_invalid t base with -1 -> qlru_victim t base | w -> w
        in
        t.tags.(base + w) <- tag;
        t.age.(base + w) <- 1;
        false
      end
  | Policy.Mru ->
      if slot >= 0 then begin
        mru_touch t base (slot - base);
        true
      end
      else begin
        t.misses <- t.misses + 1;
        let w =
          match first_invalid t base with -1 -> mru_victim t base | w -> w
        in
        t.tags.(base + w) <- tag;
        mru_touch t base w;
        false
      end

let probe t addr =
  let tag = addr lsr t.line_shift in
  find t (locate_set t tag) tag >= 0

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.age 0 (Array.length t.age) 0;
  if Array.length t.tree > 0 then Array.fill t.tree 0 (Array.length t.tree) 0

type stats = { accesses : int; misses : int }

let stats (t : t) : stats = { accesses = t.accesses; misses = t.misses }

let miss_rate (t : t) =
  if t.accesses = 0 then 0.
  else float_of_int t.misses /. float_of_int t.accesses

let reset_stats (t : t) =
  t.accesses <- 0;
  t.misses <- 0
