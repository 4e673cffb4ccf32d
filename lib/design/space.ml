type t = { params : Parameter.t array; by_name : (string, int) Hashtbl.t }
type point = float array

let create params =
  if params = [] then invalid_arg "Space.create: no parameters";
  let params = Array.of_list params in
  let by_name = Hashtbl.create (Array.length params) in
  Array.iteri
    (fun i (p : Parameter.t) ->
      if Hashtbl.mem by_name p.name then
        invalid_arg ("Space.create: duplicate parameter " ^ p.name);
      Hashtbl.add by_name p.name i)
    params;
  { params; by_name }

let dimension t = Array.length t.params
let parameters t = Array.copy t.params
let parameter t k = t.params.(k)

let index_of t name =
  match Hashtbl.find_opt t.by_name name with
  | Some i -> i
  | None -> raise Not_found

let check_arity t x =
  if Array.length x <> Array.length t.params then
    invalid_arg "Space: point arity mismatch"

let decode t x =
  check_arity t x;
  Array.mapi (fun k u -> Parameter.decode t.params.(k) u) x

let encode t values =
  check_arity t values;
  Array.mapi (fun k v -> Parameter.encode t.params.(k) v) values

let snap t ~sample_size x =
  check_arity t x;
  Array.mapi (fun k u -> Parameter.snap t.params.(k) ~sample_size u) x

let eps = 1e-9
let contains x = Array.for_all (fun u -> u >= -.eps && u <= 1. +. eps) x

let validate_point t x =
  check_arity t x;
  if not (contains x) then invalid_arg "Space: point outside unit cube"

(* Batched validation for the hot prediction path: one pass per check
   instead of a closure call per point, with the same failure messages
   as [validate_point]. *)
let validate_points t xs =
  let dim = Array.length t.params in
  let n = Array.length xs in
  for i = 0 to n - 1 do
    if Array.length (Array.unsafe_get xs i) <> dim then
      invalid_arg "Space: point arity mismatch"
  done;
  for i = 0 to n - 1 do
    let x = Array.unsafe_get xs i in
    let ok = ref true in
    for k = 0 to dim - 1 do
      let u = Array.unsafe_get x k in
      if not (u >= -.eps && u <= 1. +. eps) then ok := false
    done;
    if not !ok then invalid_arg "Space: point outside unit cube"
  done

let sub_box t ~lo ~hi u =
  check_arity t lo;
  check_arity t hi;
  check_arity t u;
  Array.mapi (fun k v -> lo.(k) +. (v *. (hi.(k) -. lo.(k)))) u

let pp_point t ppf x =
  check_arity t x;
  Format.fprintf ppf "{";
  Array.iteri
    (fun k u ->
      if k > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%s=%g" t.params.(k).Parameter.name
        (Parameter.decode t.params.(k) u))
    x;
  Format.fprintf ppf "}"
