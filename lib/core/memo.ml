module Design = Archpred_design

(* Quantized-key LRU cache over the design grid.

   The design space has finitely many levels per axis, so an on-grid
   point [u] has an exact integer representation: the level index
   [k = round (u * (l - 1))] per dimension.  The per-axis indices are
   packed into a single immediate integer (each axis contributes
   [ceil (log2 l)] bits), which is the cache key.

   Bit-identity guard: a key is only issued when the canonical grid
   coordinate [k /. (l - 1)] equals the query coordinate *bitwise*
   (this matches Parameter.snap and Parameter.level_coordinates, which
   produce grid points exactly that way).  Off-grid queries — or grids
   whose packed key would not fit the 62-bit budget — are reported as
   [Bypass] and evaluated directly, never cached, so a cached predictor
   can never return a value the scalar path would not have produced for
   the same float input.

   The structure is engineered for the serving hit path, which has to
   undercut the ~130 ns/pt batched kernel to be worth fronting it:

   - keys are immediate ints, so matching a node is one integer
     compare — no string hashing, no array walk, no allocation;
   - the index is a private open-addressed table (Fibonacci hashing,
     linear probing, backward-shift deletion), at most quarter-full;
   - the canonical-coordinate check reads a precomputed per-axis table
     of grid coordinates and compares with a native float instruction
     (plus a reciprocal sign test at level 0, where -0.0 would
     otherwise alias +0.0) — no division, no external calls;
   - recency is a circular doubly-linked list through a sentinel, so a
     hit's refresh is six pointer stores.

   Eviction is deterministic: least recently used, decided solely by
   the recency list; probe order in the table is never observable. *)

type node = {
  n_packed : int;  (* -1 marks the sentinel / empty slot *)
  mutable n_value : float;
  mutable n_prev : node;  (* toward MRU; sentinel.n_next is the MRU *)
  mutable n_next : node;  (* toward LRU; sentinel.n_prev is the LRU *)
}

type key = int

type t = {
  level_counts : int array;
  canon : float array array;
      (* canon.(i).(k) = k /. (level_counts.(i) - 1): the bitwise-exact
         grid coordinate per axis and level, precomputed so the hot
         probe does one load + one float compare per axis instead of a
         division and two external calls *)
  scale : float array;  (* float_of_int (level_counts.(i) - 1) *)
  shifts : int array;  (* bit offset of each axis inside a packed key *)
  widths : int array;  (* bits per axis *)
  gridable : bool;  (* the packed key fits the 62-bit budget *)
  capacity : int;
  slots : node array;  (* open-addressed; t.sentinel marks an empty slot *)
  hash_shift : int;  (* Fibonacci hashing: slot = (p * phi) lsr hash_shift *)
  n_slots : int;
  sentinel : node;
  mutable size : int;
  obs : Archpred_obs.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable bypasses : int;
  mutable scratch_packed : int;  (* key of the last successful quantize *)
  mutable pending : (int * key) list;  (* cacheable misses of the last probe *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  bypasses : int;
  size : int;
  capacity : int;
}

let max_packed_bits = 62 (* keep packed keys non-negative immediates *)

let bits_for n =
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(obs = Archpred_obs.null) ~capacity ~space ~sample_size () =
  if capacity < 1 then invalid_arg "Memo.create: capacity < 1";
  let level_counts =
    Array.map
      (fun p -> Design.Parameter.level_count p ~sample_size)
      (Design.Space.parameters space)
  in
  let widths = Array.map (fun lc -> bits_for (lc - 1)) level_counts in
  let total_bits = Array.fold_left ( + ) 0 widths in
  let gridable = total_bits <= max_packed_bits in
  let shifts =
    let off = ref 0 in
    Array.map
      (fun w ->
        let s = !off in
        off := !off + w;
        s)
      widths
  in
  let canon =
    if not gridable then [||]
    else
      Array.map
        (fun lc ->
          let last = float_of_int (lc - 1) in
          Array.init lc (fun k -> float_of_int k /. last))
        level_counts
  in
  let rec sentinel =
    { n_packed = -1; n_value = 0.; n_prev = sentinel; n_next = sentinel }
  in
  (* load factor stays under 1/4 even at full capacity, keeping probe
     chains short; the table never grows or shrinks *)
  let n_slots =
    let rec up n = if n >= 4 * capacity then n else up (2 * n) in
    up 16
  in
  {
    level_counts;
    canon;
    scale = Array.map (fun lc -> float_of_int (lc - 1)) level_counts;
    shifts;
    widths;
    gridable;
    capacity;
    slots = Array.make n_slots sentinel;
    hash_shift = 63 - bits_for (n_slots - 1);
    n_slots;
    sentinel;
    size = 0;
    obs;
    hits = 0;
    misses = 0;
    evictions = 0;
    bypasses = 0;
    scratch_packed = -1;
    pending = [];
  }

(* Quantize [point] into [t.scratch_packed], valid until the next call.
   Returns false for anything that is not bitwise on-grid. *)
let quantize_into t point =
  let dim = Array.length t.level_counts in
  if (not t.gridable) || Array.length point <> dim then false
  else begin
    let ok = ref true in
    let p = ref 0 in
    let i = ref 0 in
    while !ok && !i < dim do
      let u = Array.unsafe_get point !i in
      (* u >= 0 on the grid, so round-half-up truncation equals rounding;
         a marginal value that rounds differently just fails the
         canonical compare below and bypasses — it can never mis-key.
         NaN converts out of range and is rejected. *)
      let idx = int_of_float ((u *. Array.unsafe_get t.scale !i) +. 0.5) in
      let canon_i = Array.unsafe_get t.canon !i in
      if
        idx >= 0
        && idx < Array.length canon_i
        (* native float compare: true only when u is numerically the
           canonical grid coordinate; the reciprocal test rejects -0.0
           (which compares equal to canon 0.0 but is not bitwise it)
           and only ever runs at level 0 *)
        && Array.unsafe_get canon_i idx = u
        && (idx <> 0 || 1. /. u > 0.)
      then begin
        p := !p lor (idx lsl Array.unsafe_get t.shifts !i);
        incr i
      end
      else ok := false
    done;
    t.scratch_packed <- !p;
    !ok
  end

(* Fibonacci hashing: multiply by an odd 63-bit constant and keep the
   high bits, which mix every key bit into the slot index. *)
let home t packed = (packed * 0x2545F4914F6CDD1D) lsr t.hash_shift land (t.n_slots - 1)

(* Probe for the node with key [packed]; [t.sentinel] if absent.  The
   table is at most quarter-full, so an empty slot always stops the
   scan. *)
let find t packed =
  let mask = t.n_slots - 1 in
  let i = ref (home t packed) in
  let found = ref t.sentinel in
  let scanning = ref true in
  while !scanning do
    let e = Array.unsafe_get t.slots !i in
    if e.n_packed = packed then begin
      found := e;
      scanning := false
    end
    else if e == t.sentinel then scanning := false
    else i := (!i + 1) land mask
  done;
  !found

let place t node =
  let mask = t.n_slots - 1 in
  let i = ref (home t node.n_packed) in
  while Array.unsafe_get t.slots !i != t.sentinel do
    i := (!i + 1) land mask
  done;
  t.slots.(!i) <- node

(* Backward-shift deletion: close the probe chain so no tombstones
   accumulate (the cache evicts on every insert once warm). *)
let remove_table t node =
  let mask = t.n_slots - 1 in
  let i = ref (home t node.n_packed) in
  while Array.unsafe_get t.slots !i != node do
    i := (!i + 1) land mask
  done;
  let j = ref !i in
  let k = ref !i in
  let shifting = ref true in
  while !shifting do
    k := (!k + 1) land mask;
    let e = Array.unsafe_get t.slots !k in
    if e == t.sentinel then begin
      t.slots.(!j) <- t.sentinel;
      shifting := false
    end
    else begin
      let h = home t e.n_packed in
      if (!k - h) land mask >= (!k - !j) land mask then begin
        t.slots.(!j) <- e;
        j := !k
      end
    end
  done

(* recency-list surgery: pure pointer stores on the circular list *)

let unlink node =
  node.n_prev.n_next <- node.n_next;
  node.n_next.n_prev <- node.n_prev

let push_front t node =
  let h = t.sentinel.n_next in
  node.n_prev <- t.sentinel;
  node.n_next <- h;
  h.n_prev <- node;
  t.sentinel.n_next <- node

let insert t key value =
  let existing = find t key in
  if existing != t.sentinel then begin
    (* refresh: same grid point always maps to the same model value,
       but move it to the front and keep the latest value anyway *)
    existing.n_value <- value;
    unlink existing;
    push_front t existing
  end
  else begin
    if t.size >= t.capacity then begin
      let lru = t.sentinel.n_prev in
      if lru != t.sentinel then begin
        unlink lru;
        remove_table t lru;
        t.size <- t.size - 1;
        t.evictions <- t.evictions + 1;
        Archpred_obs.incr t.obs "memo.evictions"
      end
    end;
    let rec node =
      { n_packed = key; n_value = value; n_prev = node; n_next = node }
    in
    place t node;
    push_front t node;
    t.size <- t.size + 1
  end

(* ------------------------------------------------------------------ *)
(* Batched probing                                                    *)
(* ------------------------------------------------------------------ *)

let probe_batch t points ~out ~miss =
  let n = Array.length points in
  if Array.length out < n || Array.length miss < n then
    invalid_arg "Memo.probe_batch: out/miss shorter than the batch";
  t.pending <- [];
  let hits = ref 0 and misses = ref 0 and bypasses = ref 0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if not (quantize_into t (Array.unsafe_get points i)) then begin
      incr bypasses;
      Array.unsafe_set miss !m i;
      incr m
    end
    else
      let node = find t t.scratch_packed in
      if node != t.sentinel then begin
        incr hits;
        unlink node;
        push_front t node;
        Array.unsafe_set out i node.n_value
      end
      else begin
        incr misses;
        (* archpred-analyze: allow hot-alloc -- miss path only; the cons+pair is amortized by the kernel evaluation the miss already pays for *)
        t.pending <- (i, t.scratch_packed) :: t.pending;
        Array.unsafe_set miss !m i;
        incr m
      end
  done;
  t.hits <- t.hits + !hits;
  t.misses <- t.misses + !misses;
  t.bypasses <- t.bypasses + !bypasses;
  if !hits > 0 then Archpred_obs.count t.obs "memo.hits" !hits;
  if !misses > 0 then Archpred_obs.count t.obs "memo.misses" !misses;
  if !bypasses > 0 then Archpred_obs.count t.obs "memo.bypasses" !bypasses;
  !m

let commit t values =
  (* [pending] is in reverse stream order; insert in stream order so the
     recency list ends up as a point-by-point probe and insert would
     leave it *)
  (* archpred-analyze: allow hot-alloc -- one closure per batch, not per point; rewriting as a loop would need a mutable cursor for no measured gain *)
  List.iter (fun (i, key) -> insert t key values.(i)) (List.rev t.pending);
  t.pending <- []

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    bypasses = t.bypasses;
    size = t.size;
    capacity = t.capacity;
  }

let unpack t packed =
  Array.init (Array.length t.level_counts) (fun i ->
      (packed lsr t.shifts.(i)) land ((1 lsl t.widths.(i)) - 1))

let contents t =
  let rec walk acc node =
    if node == t.sentinel then List.rev acc
    else walk ((unpack t node.n_packed, node.n_value) :: acc) node.n_next
  in
  walk [] t.sentinel.n_next
