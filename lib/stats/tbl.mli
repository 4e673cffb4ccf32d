(** Deterministic iteration over hash tables.

    [Hashtbl.iter]/[Hashtbl.fold] visit bindings in unspecified order, so
    any result-path accumulation that is not exactly commutative (float
    sums, list building, first-wins merges) silently depends on hashing
    internals.  These helpers materialise the bindings and sort them by
    key under an explicit comparator, giving a stable total order.  With
    unique keys (tables populated via [replace]) that order is a total
    function of the table's contents; an [add]-built table may hold
    duplicate keys, which keep their relative bucket order, so use one
    here only when the per-key values are themselves order-free.  The
    archpred-analyze rule [hashtbl-order] rejects direct [iter]/[fold]
    call sites in result-path code and points here. *)

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
