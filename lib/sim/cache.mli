(** Set-associative LRU caches.

    Three instances form the simulated hierarchy: split L1 instruction and
    data caches backed by a unified L2 (the L2 size and latency, and the L1
    sizes and data latency, are five of the paper's nine design
    parameters).  The cache is a timing structure only — no data is stored,
    just tags and recency.  Replacement is true LRU via monotone age
    stamps. *)

type config = {
  size_bytes : int;  (** total capacity; any multiple of [line * assoc] *)
  line_bytes : int;  (** line size; power of two *)
  associativity : int;  (** ways per set; [size / line / assoc] sets *)
  latency : int;  (** hit latency in cycles *)
}

val config :
  size_bytes:int ->
  line_bytes:int ->
  associativity:int ->
  latency:int ->
  unit ->
  config
(** Validated constructor. Raises [Invalid_argument] on a non-power-of-two
    line size, zero ways, capacity smaller than [line * assoc], or a
    capacity that is not a whole number of sets.  Arbitrary set counts are
    supported (indexing is modulo), so the design space can vary cache
    capacity continuously rather than in power-of-two jumps. *)

type t

val create : config -> t
val latency : t -> int
val sets : t -> int

val access : t -> int -> bool
(** [access t addr] probes the line containing byte [addr]; returns [true]
    on hit.  On miss the line is filled into an invalid way if one exists,
    otherwise into the least recently used way. *)

val probe : t -> int -> bool
(** Hit test without any state update. *)

val invalidate_all : t -> unit

type stats = { accesses : int; misses : int }

val stats : t -> stats
val miss_rate : t -> float
val reset_stats : t -> unit
