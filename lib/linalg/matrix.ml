type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative size";
  { rows; cols; data = Array.make (rows * cols) 0. }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1. else 0.)
let rows m = m.rows
let cols m = m.cols
let data m = m.data

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.get: out of bounds";
  Array.unsafe_get m.data ((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.set: out of bounds";
  Array.unsafe_set m.data ((i * m.cols) + j) v

let copy m = { m with data = Array.copy m.data }

let of_arrays a =
  let r = Array.length a in
  if r = 0 then create 0 0
  else begin
    let c = Array.length a.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> c then
          invalid_arg "Matrix.of_arrays: ragged rows")
      a;
    init r c (fun i j -> a.(i).(j))
  end

let to_arrays m =
  Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))

let row m i = Array.init m.cols (fun j -> get m i j)
let col m j = Array.init m.rows (fun i -> get m i j)

let set_row m i v =
  if Array.length v <> m.cols then invalid_arg "Matrix.set_row: bad length";
  Array.blit v 0 m.data (i * m.cols) m.cols

let set_col m j v =
  if Array.length v <> m.rows then invalid_arg "Matrix.set_col: bad length";
  for i = 0 to m.rows - 1 do
    set m i j v.(i)
  done

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let m = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if not (Float.equal aik 0.) then
        for j = 0 to b.cols - 1 do
          m.data.((i * b.cols) + j) <-
            m.data.((i * b.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  m

let mul_vec a x =
  if a.cols <> Array.length x then invalid_arg "Matrix.mul_vec: mismatch";
  Array.init a.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (a.data.((i * a.cols) + j) *. x.(j))
      done;
      !acc)

let map2 name f a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg ("Matrix." ^ name ^ ": dimension mismatch");
  { a with data = Array.init (Array.length a.data) (fun i -> f a.data.(i) b.data.(i)) }

let add a b = map2 "add" ( +. ) a b
let sub a b = map2 "sub" ( -. ) a b
let scale s a = { a with data = Array.map (fun v -> s *. v) a.data }

let equal ?(eps = 0.) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  for i = 0 to Array.length a.data - 1 do
    if abs_float (a.data.(i) -. b.data.(i)) > eps then ok := false
  done;
  !ok

let select_cols a idx =
  Array.iter
    (fun j ->
      if j < 0 || j >= a.cols then invalid_arg "Matrix.select_cols: bad index")
    idx;
  init a.rows (Array.length idx) (fun i k -> get a i idx.(k))

let frobenius a =
  sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0. a.data)

let pp ppf m =
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%10.4g" (get m i j)
    done;
    Format.fprintf ppf "]@."
  done
