let sorted_bindings ~cmp tbl =
  (* The one sanctioned raw fold: cons-accumulation in bucket order is
     immediately normalised by the key sort below. *)
  (* archpred-analyze: allow hashtbl-order -- sanctioned wrapper: fold feeds a total-order key sort *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.stable_sort (fun (a, _) (b, _) -> cmp a b)

let iter_sorted ~cmp f tbl =
  List.iter (fun (k, v) -> f k v) (sorted_bindings ~cmp tbl)

let fold_sorted ~cmp f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings ~cmp tbl)
