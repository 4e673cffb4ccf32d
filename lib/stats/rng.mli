(** Deterministic, splittable pseudo-random number generation.

    All stochastic components of the library (sampling plans, synthetic
    workload generation, test-point selection) draw from this module so that
    every experiment is reproducible from a single integer seed.  The
    generator is xoshiro256** seeded through splitmix64, following the
    recommendation of Blackman and Vigna. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] initialises a generator from [seed].  Equal seeds yield
    equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Streams obtained by successive splits are statistically independent,
    which lets parallel components share one root seed without sharing a
    sequence. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy replays the same
    stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val unit_float : t -> float
(** Uniform on [0, 1), with 53 bits of precision. *)

val bool : t -> bool
(** A fair coin flip. *)
