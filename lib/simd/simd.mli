(** The SIMD level every C kernel of the tree dispatches on: one probe
    of the host's CPUID, lowered to a process-wide cap.  The Gram, push
    sweep, discrepancy, design and evaluation kernels all read it, and
    every level returns the same bits (each kernel keeps its OCaml
    reference's operation order), so the level only changes speed.
    Nothing in production lowers the cap: there is no option,
    environment variable or configuration field for it.  Tests lower it
    with {!with_cap} to run every path on one host. *)

type level = Scalar | Avx2 | Avx512  (** Ascending. *)

val level : unit -> level
(** The level the kernels run at: the host's, lowered to the cap. *)

val training : unit -> level
(** {!level}, but at most [Avx2], the widest path of the training
    kernels (Gram, push sweep, discrepancy and design). *)

val supported : unit -> level list
(** Every level up to the host's, ascending. *)

val to_string : level -> string
(** ["scalar"], ["avx2"] or ["avx512"]. *)

val with_cap : level -> (unit -> 'a) -> 'a
(** [with_cap l f] runs [f] with every kernel of the process capped at
    [l] and restores the previous cap when [f] returns or raises.  For
    tests only: kernels running on other domains meanwhile see it too. *)
