(** Deterministic iteration over hash tables.

    [Hashtbl.iter]/[Hashtbl.fold] visit bindings in unspecified order, so
    any result-path accumulation that is not exactly commutative (float
    sums, list building, first-wins merges) silently depends on hashing
    internals.  These helpers materialise the bindings and sort them by
    key under an explicit comparator, giving a stable total order; the
    archpred-analyze rule [hashtbl-order] rejects direct [iter]/[fold]
    call sites in result-path code and points here. *)

val sorted_bindings :
  cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings sorted by key.  With unique keys (the common case —
    tables populated via [replace]) the order is a total function of the
    table's contents.  Tables built with [add] may hold duplicate keys;
    duplicates keep their relative bucket order, so only use [add]-built
    tables here when the per-key values are themselves order-free. *)

val iter_sorted :
  cmp:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [Hashtbl.iter] in ascending key order under [cmp]. *)

val fold_sorted :
  cmp:('k -> 'k -> int) ->
  ('k -> 'v -> 'acc -> 'acc) ->
  ('k, 'v) Hashtbl.t ->
  'acc ->
  'acc
(** [Hashtbl.fold] in ascending key order under [cmp]. *)
