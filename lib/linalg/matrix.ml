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

let rows m = m.rows
let cols m = m.cols
let data m = m.data

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.get: out of bounds";
  Array.unsafe_get m.data ((i * m.cols) + j)

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

let select_cols a idx =
  Array.iter
    (fun j ->
      if j < 0 || j >= a.cols then invalid_arg "Matrix.select_cols: bad index")
    idx;
  init a.rows (Array.length idx) (fun i k -> get a i idx.(k))
