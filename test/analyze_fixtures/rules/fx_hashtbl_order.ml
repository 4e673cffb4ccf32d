(* hashtbl-order: unordered iteration, direct and through a module
   alias (which only path resolution sees). *)

let visit h = Hashtbl.iter (fun _ () -> ()) h

module H = Hashtbl

let total h = H.fold (fun _ v acc -> acc + v) h 0
