(** Additional SPEC CPU2000 stand-in profiles, beyond the paper's eight.

    The paper's Table 3 evaluates six integer and two floating-point
    programs; these four extras round the suite out for users of the
    library (they follow the same construction and calibration approach
    as {!Spec2000} but are *not* part of the reproduction):

    - [gzip] — compression: tight loops over a small working set, very
      predictable branches;
    - [gcc] — compilation: the largest code footprint in the suite,
      stressing the L1I and BTB;
    - [art] — FP image recognition: a cache-thrashing working set slightly
      beyond typical L2 sizes (notorious for its memory behaviour);
    - [swim] — FP shallow-water modelling: long streaming sweeps over
      large arrays, bandwidth-bound. *)

val all : Profile.t list
(** The four extras. *)

val find : string -> Profile.t option
(** Look up by name (e.g. ["mcf"], ["181.mcf"]) across {!Spec2000.all}
    and the four extras. *)
