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

let choose rng k n =
  if k < 0 || k > n then invalid_arg "Sampling.choose: need 0 <= k <= n";
  let xs = permutation rng n in
  Array.sub xs 0 k
