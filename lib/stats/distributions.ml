let geometric rng ~p =
  if p <= 0. || p > 1. then invalid_arg "Distributions.geometric: p not in (0,1]";
  if Float.equal p 1. then 0
  else begin
    let rec nonzero () =
      let u = Rng.unit_float rng in
      if Float.equal u 0. then nonzero () else u
    in
    let u = nonzero () in
    int_of_float (floor (log u /. log (1. -. p)))
  end

let zipf rng ~n ~s =
  if n <= 0 then invalid_arg "Distributions.zipf: n <= 0";
  if s < 0. then invalid_arg "Distributions.zipf: s < 0";
  if n = 1 then 0
  else if Float.equal s 0. then Rng.int rng n
  else begin
    (* Devroye's rejection method for the Zipf distribution on [1, n]. *)
    let nf = float_of_int n in
    let t =
      if Float.equal s 1. then 1. +. log nf
      else (nf ** (1. -. s) -. s) /. (1. -. s)
    in
    let inv_cdf p =
      (* Inverse of the normalised envelope CDF. *)
      let pt = p *. t in
      if pt <= 1. then pt
      else if Float.equal s 1. then exp (pt -. 1.)
      else (1. +. (pt *. (1. -. s))) ** (1. /. (1. -. s))
    in
    let rec draw () =
      let x = inv_cdf (Rng.unit_float rng) in
      let k = Float.min nf (floor (x +. 0.5)) in
      let k = Float.max 1. k in
      let ratio = (k /. x) ** s in
      let accept =
        if k -. x <= 0.5 then ratio
        else ratio *. (x /. k) (* crude correction keeps accept <= 1 *)
      in
      if Rng.unit_float rng < accept then int_of_float k - 1 else draw ()
    in
    draw ()
  end

let categorical rng weights =
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Distributions.categorical: weights sum <= 0";
  let x = Rng.float rng total in
  let n = Array.length weights in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else begin
      let acc = acc +. weights.(i) in
      if x < acc then i else scan (i + 1) acc
    end
  in
  scan 0 0.

type 'a alias_table = {
  values : 'a array;
  prob : float array;
  alias : int array;
}

let alias_of_weighted pairs =
  let n = Array.length pairs in
  if n = 0 then invalid_arg "Distributions.alias_of_weighted: empty";
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0. pairs in
  if total <= 0. then invalid_arg "Distributions.alias_of_weighted: weights sum <= 0";
  let values = Array.map fst pairs in
  let scaled = Array.map (fun (_, w) -> w *. float_of_int n /. total) pairs in
  let prob = Array.make n 1. in
  let alias = Array.init n (fun i -> i) in
  let small = ref [] and large = ref [] in
  Array.iteri
    (fun i p -> if p < 1. then small := i :: !small else large := i :: !large)
    scaled;
  let rec pair () =
    match (!small, !large) with
    | s :: srest, l :: lrest ->
        prob.(s) <- scaled.(s);
        alias.(s) <- l;
        scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
        small := srest;
        if scaled.(l) < 1. then begin
          small := l :: !small;
          large := lrest
        end
        else large := l :: lrest;
        pair ()
    | _ -> ()
  in
  pair ();
  { values; prob; alias }

let alias_draw rng t =
  let n = Array.length t.values in
  let i = Rng.int rng n in
  if Rng.unit_float rng < t.prob.(i) then t.values.(i)
  else t.values.(t.alias.(i))
