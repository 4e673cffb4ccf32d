let shuffle_in_place rng xs =
  for i = Array.length xs - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let permutation rng n =
  let xs = Array.init n (fun i -> i) in
  shuffle_in_place rng xs;
  xs
