type levels = Fixed of int | Per_sample

type t = {
  name : string;
  lo : float;
  hi : float;
  levels : levels;
  transform : Transform.t;
  integer : bool;
}

let make ?(levels = Per_sample) ?(transform = Transform.Linear)
    ?(integer = false) name ~lo ~hi =
  if name = "" then invalid_arg "Parameter.make: empty name";
  if lo = hi then invalid_arg "Parameter.make: lo = hi";
  (match levels with
  | Fixed l when l < 2 -> invalid_arg "Parameter.make: Fixed levels < 2"
  | Fixed _ | Per_sample -> ());
  (match transform with
  | Transform.Log when lo <= 0. || hi <= 0. ->
      invalid_arg "Parameter.make: log transform over non-positive range"
  | Transform.Log | Transform.Linear -> ());
  { name; lo; hi; levels; transform; integer }

let level_count t ~sample_size =
  match t.levels with
  | Fixed l -> l
  | Per_sample -> max 2 sample_size

let level_coordinates t ~sample_size =
  let l = level_count t ~sample_size in
  Array.init l (fun k -> float_of_int k /. float_of_int (l - 1))

let snap t ~sample_size u =
  let l = level_count t ~sample_size in
  let k = Float.round (u *. float_of_int (l - 1)) in
  let k = Float.max 0. (Float.min (float_of_int (l - 1)) k) in
  k /. float_of_int (l - 1)

let decode t u =
  let v = Transform.apply t.transform ~lo:t.lo ~hi:t.hi u in
  if t.integer then Float.round v else v

let encode t v = Transform.invert t.transform ~lo:t.lo ~hi:t.hi v
