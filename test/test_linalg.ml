(* Tests for archpred.linalg: vectors, matrices, QR, least squares and
   the incremental Cholesky solver. *)

module Vector = Archpred_linalg.Vector
module Matrix = Archpred_linalg.Matrix
module Qr = Archpred_linalg.Qr
module Least_squares = Archpred_linalg.Least_squares
module Rng = Archpred_stats.Rng
module Simd = Archpred_simd.Simd

let check_float ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let random_matrix rng r c =
  Matrix.init r c (fun _ _ -> Rng.unit_float rng -. 0.5)

(* [k] distinct indices of [0 .. n-1], in random order. *)
let choose rng k n = Array.sub (Archpred_stats.Sampling.permutation rng n) 0 k

(* Whole-matrix helpers over the Matrix API. *)
let of_arrays a =
  Matrix.init (Array.length a) (Array.length a.(0)) (fun i j -> a.(i).(j))

let to_arrays m =
  Array.init (Matrix.rows m) (fun i -> Array.init (Matrix.cols m) (Matrix.get m i))

(* Matrix editing through the row-major backing store. *)
let mset m i j v = (Matrix.data m).((i * Matrix.cols m) + j) <- v
let mcopy a = Matrix.init (Matrix.rows a) (Matrix.cols a) (Matrix.get a)
let mcol a j = Array.init (Matrix.rows a) (fun i -> Matrix.get a i j)
let set_col a j v = Array.iteri (fun i x -> mset a i j x) v
let identity n = Matrix.init n n (fun i j -> if i = j then 1. else 0.)

let mequal ?(eps = 0.) a b =
  Matrix.rows a = Matrix.rows b
  && Matrix.cols a = Matrix.cols b
  && Array.for_all2
       (fun x y -> abs_float (x -. y) <= eps)
       (Matrix.data a) (Matrix.data b)

(* [transpose a * b] by the plain loop: rows outer, summed in ascending
   row order from +0, skipping terms whose left factor is zero.  The
   bit-identity properties below hold the library's faster layouts to
   this reference. *)
let tmul a b =
  let rows = Matrix.rows a and ca = Matrix.cols a and cb = Matrix.cols b in
  let m = Matrix.create ca cb in
  for k = 0 to rows - 1 do
    for i = 0 to ca - 1 do
      let aki = Matrix.get a k i in
      if not (Float.equal aki 0.) then
        for j = 0 to cb - 1 do
          mset m i j (Matrix.get m i j +. (aki *. Matrix.get b k j))
        done
    done
  done;
  m

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* ---------- Vector ---------- *)

(* Inner product, for the residual-orthogonality checks. *)
let dot x y =
  let acc = ref 0. in
  Array.iteri (fun i xi -> acc := !acc +. (xi *. y.(i))) x;
  !acc

let test_norm () = check_float "norm" 25. (Vector.norm2_sq [| 3.; 4. |])

let test_sub () =
  Alcotest.(check (array (float 1e-9)))
    "sub" [| -3.; -3. |]
    (Vector.sub [| 1.; 2. |] [| 4.; 5. |])

let test_dim_mismatch () =
  Alcotest.check_raises "sub mismatch"
    (Invalid_argument "Vector.sub: dimension mismatch") (fun () ->
      ignore (Vector.sub [| 1. |] [| 1.; 2. |]))

(* ---------- Matrix ---------- *)

let test_identity_mul () =
  let rng = Rng.create 1 in
  let a = random_matrix rng 4 4 in
  Alcotest.(check bool) "I*A = A" true
    (mequal ~eps:1e-12 a (Matrix.mul (identity 4) a))

let test_transpose_involution () =
  let rng = Rng.create 2 in
  let a = random_matrix rng 3 5 in
  Alcotest.(check bool) "(A')' = A" true
    (mequal a (Matrix.transpose (Matrix.transpose a)))

let test_mul_known () =
  let a = of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Matrix.mul a b in
  check_float "c00" 19. (Matrix.get c 0 0);
  check_float "c01" 22. (Matrix.get c 0 1);
  check_float "c10" 43. (Matrix.get c 1 0);
  check_float "c11" 50. (Matrix.get c 1 1)

let test_tmul_matches () =
  let rng = Rng.create 3 in
  let a = random_matrix rng 6 3 in
  let b = random_matrix rng 6 4 in
  Alcotest.(check bool) "tmul = A'B" true
    (mequal ~eps:1e-12 (tmul a b)
       (Matrix.mul (Matrix.transpose a) b))

let test_mul_vec () =
  let a = of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array (float 1e-9)))
    "Av" [| 5.; 11. |]
    (Matrix.mul_vec a [| 1.; 2. |])

let test_select_cols () =
  let a = of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let s = Matrix.select_cols a [| 2; 0 |] in
  check_float "s00" 3. (Matrix.get s 0 0);
  check_float "s01" 1. (Matrix.get s 0 1);
  check_float "s10" 6. (Matrix.get s 1 0)

(* ---------- QR / least squares ---------- *)

let test_qr_exact_solve () =
  (* square, consistent system *)
  let a = of_arrays [| [| 1.; 1. |]; [| 1.; 2. |]; [| 1.; 3. |] |] in
  (* y = 2 + 3x exactly *)
  let y = [| 5.; 8.; 11. |] in
  let w = Qr.least_squares a y in
  check_float ~eps:1e-10 "intercept" 2. w.(0);
  check_float ~eps:1e-10 "slope" 3. w.(1)

let test_qr_minimizes () =
  let a = of_arrays [| [| 1.; 0. |]; [| 1.; 1. |]; [| 1.; 2. |] |] in
  let y = [| 0.; 1.; 1. |] in
  let w = Qr.least_squares a y in
  (* residual must be orthogonal to the column space *)
  let fitted = Matrix.mul_vec a w in
  let r = Vector.sub y fitted in
  check_float ~eps:1e-10 "r . col0" 0. (dot r (mcol a 0));
  check_float ~eps:1e-10 "r . col1" 0. (dot r (mcol a 1))

let test_qr_rank_deficient () =
  let a = of_arrays [| [| 1.; 2. |]; [| 2.; 4. |]; [| 3.; 6. |] |] in
  Alcotest.check_raises "rank deficient" Qr.Rank_deficient (fun () ->
      ignore (Qr.least_squares a [| 1.; 2.; 3. |]))

let test_qr_r_triangular () =
  let rng = Rng.create 8 in
  let a = random_matrix rng 6 4 in
  let r = Qr.r (Qr.decompose a) in
  for i = 0 to 3 do
    for j = 0 to i - 1 do
      check_float "below diagonal" 0. (Matrix.get r i j)
    done
  done

let test_ridge_shrinks () =
  let a = of_arrays [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let y = [| 2.; 2. |] in
  let w0 = Qr.least_squares a y in
  let w1 = Qr.least_squares_ridge a y ~lambda:1. in
  Alcotest.(check bool) "ridge shrinks norm" true
    (Vector.norm2_sq w1 < Vector.norm2_sq w0)

let test_ridge_handles_rank_deficiency () =
  let a = of_arrays [| [| 1.; 2. |]; [| 2.; 4. |]; [| 3.; 6. |] |] in
  let w = Qr.least_squares_ridge a [| 1.; 2.; 3. |] ~lambda:1e-6 in
  Alcotest.(check int) "finite solution" 2 (Array.length w);
  Array.iter
    (fun v -> if Float.is_nan v then Alcotest.fail "NaN coefficient")
    w

let prop_qr_residual_orthogonal =
  qtest "QR residual orthogonal to columns"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = 4 + Rng.int rng 8 in
      let m = 1 + Rng.int rng 3 in
      let a = random_matrix rng p m in
      let y = Array.init p (fun _ -> Rng.unit_float rng) in
      match Qr.least_squares a y with
      | w ->
          let r = Vector.sub y (Matrix.mul_vec a w) in
          let ok = ref true in
          for j = 0 to m - 1 do
            if abs_float (dot r (mcol a j)) > 1e-6 then ok := false
          done;
          !ok
      | exception Qr.Rank_deficient -> true)

(* The row-major Householder QR the library's column-major one replaced,
   kept as the bit-identity reference. *)
module Qr_oracle = struct
  type t = { qr : Matrix.t; rdiag : float array }

  let decompose a =
    let p = Matrix.rows a and m = Matrix.cols a in
    let qr = mcopy a in
    let rdiag = Array.make m 0. in
    for k = 0 to m - 1 do
      let nrm = ref 0. in
      for i = k to p - 1 do
        let v = Matrix.get qr i k in
        nrm := sqrt ((!nrm *. !nrm) +. (v *. v))
      done;
      if not (Float.equal !nrm 0.) then begin
        let nrm = if Matrix.get qr k k < 0. then -. !nrm else !nrm in
        for i = k to p - 1 do
          mset qr i k (Matrix.get qr i k /. nrm)
        done;
        mset qr k k (Matrix.get qr k k +. 1.);
        for j = k + 1 to m - 1 do
          let s = ref 0. in
          for i = k to p - 1 do
            s := !s +. (Matrix.get qr i k *. Matrix.get qr i j)
          done;
          let s = -. !s /. Matrix.get qr k k in
          for i = k to p - 1 do
            mset qr i j (Matrix.get qr i j +. (s *. Matrix.get qr i k))
          done
        done;
        rdiag.(k) <- -.nrm
      end
    done;
    { qr; rdiag }

  let r t =
    let m = Matrix.cols t.qr in
    Matrix.init m m (fun i j ->
        if i = j then t.rdiag.(i)
        else if i < j then Matrix.get t.qr i j
        else 0.)

  let solve t y =
    let p = Matrix.rows t.qr and m = Matrix.cols t.qr in
    if not (Array.for_all (fun d -> abs_float d > 1e-12) t.rdiag) then
      raise Qr.Rank_deficient;
    let b = Array.copy y in
    for k = 0 to m - 1 do
      let s = ref 0. in
      for i = k to p - 1 do
        s := !s +. (Matrix.get t.qr i k *. b.(i))
      done;
      let s = -. !s /. Matrix.get t.qr k k in
      for i = k to p - 1 do
        b.(i) <- b.(i) +. (s *. Matrix.get t.qr i k)
      done
    done;
    let w = Array.make m 0. in
    for k = m - 1 downto 0 do
      let acc = ref b.(k) in
      for j = k + 1 to m - 1 do
        acc := !acc -. (Matrix.get t.qr k j *. w.(j))
      done;
      w.(k) <- !acc /. t.rdiag.(k)
    done;
    w

  let ridge a y ~lambda =
    let p = Matrix.rows a and m = Matrix.cols a in
    let s = sqrt lambda in
    let aug =
      Matrix.init (p + m) m (fun i j ->
          if i < p then Matrix.get a i j else if i - p = j then s else 0.)
    in
    let y_aug = Array.make (p + m) 0. in
    Array.blit y 0 y_aug 0 p;
    solve (decompose aug) y_aug
end

let same_vec a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_matrix a b =
  Matrix.rows a = Matrix.rows b
  && Matrix.cols a = Matrix.cols b
  && same_vec (Array.concat (Array.to_list (to_arrays a)))
       (Array.concat (Array.to_list (to_arrays b)))

(* Either both raise [Rank_deficient] or both return the same bits. *)
let same_outcome f g =
  let run h = match h () with v -> Some v | exception Qr.Rank_deficient -> None in
  match (run f, run g) with
  | Some a, Some b -> same_vec a b
  | None, None -> true
  | Some _, None | None, Some _ -> false

(* Entries drawn to stress the summation-order argument: exact zeros of
   both signs, negatives, subnormals, and tiny values whose products
   underflow. *)
let awkward_float rng =
  match Rng.int rng 8 with
  | 0 -> 0.
  | 1 -> -0.
  | 2 -> Float.min_float *. (Rng.unit_float rng -. 0.5)
  | 3 -> 4.9e-324 *. float_of_int (Rng.int rng 1000 - 500)
  | 4 -> 1e-160 *. (Rng.unit_float rng -. 0.5)
  | _ -> (Rng.unit_float rng -. 0.5) *. 100.

let awkward_matrix rng r c = Matrix.init r c (fun _ _ -> awkward_float rng)

let prop_qr_bit_identical =
  qtest ~count:300 "column-major QR = row-major oracle, bit for bit"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* Up to 12 columns: [factorize] applies each reflector four
         columns a pass, then one at a time. *)
      let m = 1 + Rng.int rng 12 in
      let p = m + Rng.int rng 6 in
      let a =
        if Rng.int rng 2 = 0 then awkward_matrix rng p m
        else random_matrix rng p m
      in
      (* Some inputs are rank deficient: a repeated or zero column. *)
      (if m > 1 then
         match Rng.int rng 4 with
         | 0 -> set_col a (m - 1) (mcol a 0)
         | 1 -> set_col a (Rng.int rng m) (Array.make p 0.)
         | _ -> ());
      let y = Array.init p (fun _ -> awkward_float rng) in
      let lambda = Rng.unit_float rng in
      let qr = Qr.decompose a and oracle = Qr_oracle.decompose a in
      same_matrix (Qr.r qr) (Qr_oracle.r oracle)
      && same_outcome
           (fun () -> Qr.solve qr y)
           (fun () -> Qr_oracle.solve oracle y)
      && same_outcome
           (fun () -> Qr.least_squares_ridge a y ~lambda)
           (fun () -> Qr_oracle.ridge a y ~lambda))

(* ---------- Least_squares wrapper ---------- *)

let test_ls_diagnostics () =
  let a = of_arrays [| [| 1.; 0. |]; [| 1.; 1. |]; [| 1.; 2. |] |] in
  let y = [| 1.; 2.; 3. |] in
  let f = Least_squares.fit a y in
  check_float ~eps:1e-10 "rss" 0. f.Least_squares.rss;
  check_float ~eps:1e-10 "sigma2" 0. f.Least_squares.sigma2;
  Alcotest.(check bool) "not regularized" false f.Least_squares.regularized

let test_ls_fallback () =
  let a = of_arrays [| [| 1.; 2. |]; [| 2.; 4. |]; [| 3.; 6. |] |] in
  let f = Least_squares.fit a [| 1.; 2.; 3. |] in
  Alcotest.(check bool) "regularized flagged" true f.Least_squares.regularized

(* ---------- Incremental least squares ---------- *)

module Ils = Archpred_linalg.Incremental_ls

(* The moments of an existing design, through the matrix producer. *)
let ils_create ?jitter ~design ~responses () =
  Ils.create ?jitter ~n_cols:(Matrix.cols design) ~rows:(Ils.matrix_rows design)
    ~responses ()

let ils_fixture () =
  let rng = Rng.create 91 in
  let design = random_matrix rng 30 8 in
  let responses = Array.init 30 (fun _ -> Rng.unit_float rng -. 0.5) in
  (design, responses, ils_create ~design ~responses ())

let test_ils_matches_full_solve () =
  let design, responses, ils = ils_fixture () in
  let fac = Ils.factor ils in
  let rng = Rng.create 92 in
  for _ = 1 to 25 do
    let m = 1 + Rng.int rng 6 in
    let cols = Array.to_list (choose rng m 8) in
    Alcotest.(check bool) "set succeeds" true (Ils.set fac cols);
    let full =
      Least_squares.fit
        (Matrix.select_cols design (Array.of_list cols))
        responses
    in
    let w = Ils.solve fac in
    Array.iteri
      (fun k wk ->
        check_float ~eps:1e-9 "coefficient" full.Least_squares.coefficients.(k)
          wk)
      w;
    check_float ~eps:1e-9 "rss" full.Least_squares.rss (Ils.rss fac);
    match Ils.sigma2 fac with
    | None -> Alcotest.fail "sigma2 defined for 0 < m < p"
    | Some s2 -> check_float ~eps:1e-9 "sigma2" full.Least_squares.sigma2 s2
  done

(* Factors start with room for 16 rows and double it as they grow:
   subsets of up to 69 columns cross several reallocations, and must
   still solve the least-squares problem, with the same bits as a fresh
   factor whose capacity grew in different steps. *)
let test_ils_factor_grows () =
  let rng = Rng.create 93 in
  let p = 120 and n = 70 in
  let design = random_matrix rng p n in
  let responses = Array.init p (fun _ -> Rng.unit_float rng -. 0.5) in
  let ils = ils_create ~design ~responses () in
  let live = Ils.factor ils in
  for _ = 1 to 8 do
    let m = 15 + Rng.int rng 55 in
    let cols = Array.to_list (choose rng m n) in
    Alcotest.(check bool) "set succeeds" true (Ils.set live cols);
    let fresh = Ils.factor ils in
    Alcotest.(check bool) "fresh set succeeds" true (Ils.set fresh cols);
    let w = Ils.solve live in
    if not (Array.for_all2 same_bits w (Ils.solve fresh)) then
      Alcotest.fail "grown factor differs from a fresh one";
    let full =
      Least_squares.fit (Matrix.select_cols design (Array.of_list cols)) responses
    in
    Array.iteri
      (fun k wk ->
        check_float ~eps:1e-9 "coefficient" full.Least_squares.coefficients.(k)
          wk)
      w;
    check_float ~eps:1e-9 "rss" full.Least_squares.rss (Ils.rss live)
  done

let test_ils_push_pop_exact () =
  (* pop truncates the factor exactly, so push / pop / re-push reproduces
     bit-identical state. *)
  let _, _, ils = ils_fixture () in
  let fac = Ils.factor ils in
  assert (Ils.set fac [ 0; 3; 5 ]);
  let rss_base = Ils.rss fac in
  assert (Ils.push fac 6);
  let rss_with = Ils.rss fac in
  Ils.pop fac;
  if Ils.rss fac <> rss_base then Alcotest.fail "pop not exact";
  assert (Ils.push fac 6);
  if Ils.rss fac <> rss_with then Alcotest.fail "re-push not exact";
  Alcotest.(check (array int)) "ids" [| 0; 3; 5; 6 |] (Ils.ids fac)

let test_ils_dependent_column_rejected () =
  (* A duplicated column is linearly dependent: the second push must fail
     and leave the factor unchanged. *)
  let design = Matrix.init 10 2 (fun i _ -> float_of_int (i + 1)) in
  let responses = Array.init 10 float_of_int in
  let ils = ils_create ~design ~responses () in
  let fac = Ils.factor ils in
  Alcotest.(check bool) "first push ok" true (Ils.push fac 0);
  Alcotest.(check bool) "dependent push rejected" false (Ils.push fac 1);
  Alcotest.(check int) "factor unchanged" 1 (Ils.size fac)

let test_ils_empty_and_accounting () =
  let _, _, ils = ils_fixture () in
  let fac = Ils.factor ils in
  Alcotest.(check (option (float 0.))) "empty sigma2" None (Ils.sigma2 fac);
  check_float ~eps:1e-12 "empty rss = y'y" (Ils.yty ils) (Ils.rss fac);
  assert (Ils.set fac [ 1; 4 ]);
  check_float ~eps:1e-9 "rss + explained = y'y" (Ils.yty ils)
    (Ils.rss fac +. Ils.explained fac)

let prop_ils_gram_bit_identical =
  qtest ~count:300 "Gram and H'y = tmul oracle, bit for bit"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* p = 1 and column counts on both sides of the 4-wide tile. *)
      let p = if Rng.int rng 4 = 0 then 1 else 1 + Rng.int rng 12 in
      let n = 1 + Rng.int rng 11 in
      let design = awkward_matrix rng p n in
      let responses = Array.init p (fun _ -> awkward_float rng) in
      let ils = ils_create ~design ~responses () in
      let g = tmul design design in
      let hy = tmul design (Matrix.init p 1 (fun i _ -> responses.(i))) in
      let ok = ref true in
      for a = 0 to n - 1 do
        if not (same_bits (Matrix.get hy a 0) (Ils.hy ils a)) then ok := false;
        for b = 0 to n - 1 do
          if not (same_bits (Matrix.get g a b) (Ils.gram ils a b)) then
            ok := false
        done
      done;
      !ok)

(* The Gram kernel takes design rows in blocks of 48 and Gram rows in
   blocks of 32, four rows by two 4-lane vectors at a time: sizes on both
   sides of every one of those boundaries, and empty designs, at every
   level the host has. *)
let prop_ils_gram_paths =
  qtest ~count:150 "Gram: SIMD = portable = tmul oracle across blocks"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let p = pick [ 0; 1; 2; 47; 48; 49; 95; 96; 97; 1 + Rng.int rng 100 ] in
      let n =
        pick [ 0; 1; 3; 4; 5; 7; 8; 9; 12; 31; 32; 33; 36; 40; 41; 65; 1 + Rng.int rng 70 ]
      in
      let design = awkward_matrix rng p n in
      let responses = Array.init p (fun _ -> awkward_float rng) in
      let g = tmul design design in
      let hy = tmul design (Matrix.init p 1 (fun i _ -> responses.(i))) in
      let ok = ref true in
      List.iter
        (fun level ->
          let ils =
            Simd.with_cap level (fun () -> ils_create ~design ~responses ())
          in
          for a = 0 to n - 1 do
            if not (same_bits (Matrix.get hy a 0) (Ils.hy ils a)) then
              ok := false;
            for b = 0 to n - 1 do
              if not (same_bits (Matrix.get g a b) (Ils.gram ils a b)) then
                ok := false
            done
          done)
        (Simd.supported ());
      !ok)

(* The packed kernel against the plain triple loop: each entry (a, b),
   b >= a, summed over the rows in ascending order from +0, read back
   as [gram a b] and as [gram b a].  Row counts straddle the 48-row
   blocks; column counts cover every remainder of the 4-row register
   block (whose leading 4x4 triangle the kernel sums on its own) and of
   the 8-wide column run, the 32-row call boundary, and a 799-column
   design, at every level the host has. *)
let test_ils_packed_gram () =
  let rng = Rng.create 95 in
  List.iter
    (fun p ->
      List.iter
        (fun n ->
          (* Subnormal arithmetic is slow: the wide design is plain. *)
          let design =
            if n > 64 then random_matrix rng p n else awkward_matrix rng p n
          in
          let responses = Array.init p (fun _ -> awkward_float rng) in
          let h = Matrix.data design in
          let oracle = Array.make (n * n) 0. in
          for k = 0 to p - 1 do
            for a = 0 to n - 1 do
              let x = h.((k * n) + a) in
              for b = a to n - 1 do
                oracle.((a * n) + b) <- oracle.((a * n) + b) +. (x *. h.((k * n) + b))
              done
            done
          done;
          List.iter
            (fun level ->
              let ils =
                Simd.with_cap level (fun () -> ils_create ~design ~responses ())
              in
              for a = 0 to n - 1 do
                for b = a to n - 1 do
                  let o = oracle.((a * n) + b) in
                  if not (same_bits o (Ils.gram ils a b) && same_bits o (Ils.gram ils b a))
                  then
                    Alcotest.failf "%s p=%d n=%d: gram (%d, %d)"
                      (Simd.to_string level) p n a b
                done
              done)
            (Simd.supported ()))
        (List.init 13 (fun i -> i + 1) @ [ 31; 32; 33; 799 ]))
    [ 1; 47; 48; 49; 97; 400 ]

(* The moments of a selection cell's shape (400 rows, 799 candidate
   columns) are built without an n x n Gram or a p x n design: with the
   producer's row blocks prepared beforehand, [create] allocates the
   packed triangle, H'y and a few words of its own. *)
let test_ils_create_memory () =
  let p = 400 and n = 799 in
  let rng = Rng.create 96 in
  let blocks =
    Array.init ((p + Ils.k_block - 1) / Ils.k_block) (fun b ->
        Array.init (Int.min Ils.k_block (p - (b * Ils.k_block)) * n) (fun _ ->
            Rng.unit_float rng))
  in
  let rows k0 _ = blocks.(k0 / Ils.k_block) in
  let responses = Array.init p (fun _ -> Rng.unit_float rng) in
  let words (st : Gc.stat) = st.minor_words +. st.major_words -. st.promoted_words in
  (* An empty minor heap first: a minor collection inside the window
     then counts only the window's words. *)
  Gc.minor ();
  let before = Gc.quick_stat () in
  let ils = Ils.create ~n_cols:n ~rows ~responses () in
  let after = Gc.quick_stat () in
  let allocated = words after -. words before in
  let bound = (n * (n + 1) / 2) + (2 * n) + 64 in
  if allocated > float_of_int bound then
    Alcotest.failf "create allocated %.0f words, more than %d" allocated bound;
  Alcotest.(check int) "columns" n (Ils.n_cols ils)

(* A factor driven by random set / push / pop sequences holds, after
   every step, exactly what a fresh factor pushed with its columns
   holds. *)
let prop_ils_sequences =
  qtest ~count:300 "set/push/pop = fresh factor"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = 2 + Rng.int rng 10 and n = 2 + Rng.int rng 8 in
      let design = random_matrix rng p n in
      (* A repeated column makes some pushes fail. *)
      set_col design (n - 1) (mcol design 0);
      let responses = Array.init p (fun _ -> Rng.unit_float rng) in
      let ils = ils_create ~jitter:(float_of_int (Rng.int rng 2) *. 1e-8)
          ~design ~responses ()
      in
      let fac = Ils.factor ils in
      let ok = ref true in
      let random_cols () =
        List.init (Rng.int rng (n + 1)) (fun _ -> Rng.int rng n)
      in
      let check () =
        if Ils.pushes fac - Ils.pops fac <> Ils.size fac then ok := false;
        let fresh = Ils.factor ils in
        Array.iter (fun j -> if not (Ils.push fresh j) then ok := false)
          (Ils.ids fac);
        let sigma_same =
          match (Ils.sigma2 fac, Ils.sigma2 fresh) with
          | None, None -> true
          | Some a, Some b -> same_bits a b
          | _ -> false
        in
        if not (sigma_same && Ils.ids fac = Ils.ids fresh
                && same_vec (Ils.solve fac) (Ils.solve fresh))
        then ok := false
      in
      for _ = 1 to 30 do
        (match Rng.int rng 5 with
        | 0 | 1 -> ignore (Ils.set fac (random_cols ()))
        | 2 ->
            (* Re-set the live columns: a no-op. *)
            ignore (Ils.set fac (Array.to_list (Ils.ids fac)))
        | 3 -> if Ils.size fac < n then ignore (Ils.push fac (Rng.int rng n))
        | _ -> if Ils.size fac > 0 then Ils.pop fac);
        check ()
      done;
      !ok)

(* The left-looking push the right-looking sweep replaced, kept as a
   test-local oracle over the public moments.  L is stored by rows, and
   entry k of the new row m is finished as one dot product:
   L_mk = (G_{ids_k, j} - sum_{q<k} L_mq L_kq) / L_kk, q ascending.
   [set] always rebuilds from scratch: the factor's contract is that
   its kept prefix holds exactly these rows. *)
module Left_looking = struct
  type t = {
    ls : Ils.t;
    jitter : float;
    ids : int array;
    l : float array; (* row-major, stride n_cols *)
    z : float array;
    mutable m : int;
  }

  let create ls ~jitter =
    let n = Ils.n_cols ls in
    {
      ls;
      jitter;
      ids = Array.make n 0;
      l = Array.make (n * n) 0.;
      z = Array.make n 0.;
      m = 0;
    }

  let push f j =
    let n = Ils.n_cols f.ls and m = f.m in
    let row = m * n in
    for k = 0 to m - 1 do
      let acc = ref (Ils.gram f.ls f.ids.(k) j) in
      for q = 0 to k - 1 do
        acc := !acc -. (f.l.(row + q) *. f.l.((k * n) + q))
      done;
      f.l.(row + k) <- !acc /. f.l.((k * n) + k)
    done;
    let d2 = ref (Ils.gram f.ls j j +. f.jitter) in
    for q = 0 to m - 1 do
      d2 := !d2 -. (f.l.(row + q) *. f.l.(row + q))
    done;
    if !d2 <= 0. then false
    else begin
      let lmm = sqrt !d2 in
      f.l.(row + m) <- lmm;
      let zm = ref (Ils.hy f.ls j) in
      for k = 0 to m - 1 do
        zm := !zm -. (f.l.(row + k) *. f.z.(k))
      done;
      f.z.(m) <- !zm /. lmm;
      f.ids.(m) <- j;
      f.m <- m + 1;
      true
    end

  let set f cols =
    f.m <- 0;
    let ok = List.for_all (push f) cols in
    if not ok then f.m <- 0;
    ok

  let explained f =
    let acc = ref 0. in
    for k = 0 to f.m - 1 do
      acc := !acc +. (f.z.(k) *. f.z.(k))
    done;
    !acc

  let sigma2 f =
    let p = Ils.p f.ls in
    if f.m = 0 || f.m >= p then None
    else Some (Float.max 0. (Ils.yty f.ls -. explained f) /. float_of_int p)

  let solve f =
    let n = Ils.n_cols f.ls and m = f.m in
    let w = Array.sub f.z 0 m in
    for i = m - 1 downto 0 do
      let acc = ref w.(i) in
      for j = i + 1 to m - 1 do
        acc := !acc -. (f.l.((j * n) + i) *. w.(j))
      done;
      w.(i) <- !acc /. f.l.((i * n) + i)
    done;
    w
end

(* The right-looking sweep at every level the host has, and the
   left-looking oracle, driven by one random sequence of set / push /
   pop, hold the same bits after every step.
   Column counts straddle the 4-lane vectors, and factors grow past the
   16- and 32-column capacities; repeated columns make pushes fail. *)
let prop_ils_sweep_paths =
  qtest ~count:200 "push sweep: SIMD = portable = left-looking oracle"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let n = pick [ 1; 3; 4; 5; 8; 9; 16; 17; 33; 40; 2 + Rng.int rng 40 ] in
      let p = n + pick [ 0; 1; 5 + Rng.int rng 30 ] in
      let design = random_matrix rng p n in
      if n > 2 && Rng.int rng 2 = 0 then
        set_col design (n - 1) (mcol design 0);
      let responses = Array.init p (fun _ -> Rng.unit_float rng -. 0.5) in
      let jitter = float_of_int (Rng.int rng 2) *. 1e-8 in
      let lss =
        List.map
          (fun level ->
            (level, Simd.with_cap level (fun () -> ils_create ~jitter ~design ~responses ())))
          (Simd.supported ())
      in
      let facs = List.map (fun (level, ls) -> (level, Ils.factor ls)) lss in
      let fs = snd (List.hd facs) in
      let fo = Left_looking.create (snd (List.hd lss)) ~jitter in
      (* [f] on every level's factor, each under its own cap. *)
      let each f =
        List.map (fun (level, fac) -> Simd.with_cap level (fun () -> f fac)) facs
      in
      let ok = ref true in
      let agree oracle l = if not (List.for_all (( = ) oracle) l) then ok := false in
      let random_cols () =
        if Rng.int rng 2 = 0 then
          Array.to_list
            (choose rng (Rng.int rng (n + 1)) n)
        else List.init (Rng.int rng (n + 1)) (fun _ -> Rng.int rng n)
      in
      let same_opt a b =
        match (a, b) with
        | None, None -> true
        | Some a, Some b -> same_bits a b
        | _ -> false
      in
      let check () =
        agree (Array.sub fo.Left_looking.ids 0 fo.m) (each Ils.ids);
        let w = Left_looking.solve fo in
        if
          not
            (List.for_all Fun.id
               (each (fun f ->
                    same_vec w (Ils.solve f)
                    && same_bits (Left_looking.explained fo) (Ils.explained f)
                    && same_opt (Left_looking.sigma2 fo) (Ils.sigma2 f))))
        then ok := false
      in
      for _ = 1 to 40 do
        (match Rng.int rng 5 with
        | 0 | 1 ->
            let cols = random_cols () in
            agree (Left_looking.set fo cols) (each (fun f -> Ils.set f cols))
        | (2 | 3) when Ils.size fs < n ->
            let j = Rng.int rng n in
            agree (Left_looking.push fo j) (each (fun f -> Ils.push f j))
        | 4 when Ils.size fs > 0 ->
            ignore (each Ils.pop);
            fo.m <- fo.m - 1
        | _ -> ());
        check ()
      done;
      !ok)

let () =
  Alcotest.run "linalg"
    [
      ( "vector",
        [
          Alcotest.test_case "norm" `Quick test_norm;
          Alcotest.test_case "sub" `Quick test_sub;
          Alcotest.test_case "dimension mismatch" `Quick test_dim_mismatch;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "identity mul" `Quick test_identity_mul;
          Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "tmul" `Quick test_tmul_matches;
          Alcotest.test_case "mul_vec" `Quick test_mul_vec;
          Alcotest.test_case "select_cols" `Quick test_select_cols;
        ] );
      ( "incremental_ls",
        [
          Alcotest.test_case "matches full solve" `Quick
            test_ils_matches_full_solve;
          Alcotest.test_case "push/pop exact" `Quick test_ils_push_pop_exact;
          Alcotest.test_case "factor grows" `Quick test_ils_factor_grows;
          Alcotest.test_case "dependent column rejected" `Quick
            test_ils_dependent_column_rejected;
          Alcotest.test_case "empty set accounting" `Quick
            test_ils_empty_and_accounting;
          prop_ils_gram_bit_identical;
          prop_ils_gram_paths;
          Alcotest.test_case "packed Gram = triple loop at every level" `Quick
            test_ils_packed_gram;
          Alcotest.test_case "moments without the n x n Gram" `Quick
            test_ils_create_memory;
          prop_ils_sequences;
          prop_ils_sweep_paths;
        ] );
      ( "qr",
        [
          Alcotest.test_case "exact solve" `Quick test_qr_exact_solve;
          Alcotest.test_case "minimizes" `Quick test_qr_minimizes;
          Alcotest.test_case "rank deficient raises" `Quick test_qr_rank_deficient;
          Alcotest.test_case "R triangular" `Quick test_qr_r_triangular;
          Alcotest.test_case "ridge shrinks" `Quick test_ridge_shrinks;
          Alcotest.test_case "ridge rank-deficient" `Quick test_ridge_handles_rank_deficiency;
          prop_qr_residual_orthogonal;
          prop_qr_bit_identical;
        ] );
      ( "least_squares",
        [
          Alcotest.test_case "diagnostics" `Quick test_ls_diagnostics;
          Alcotest.test_case "ridge fallback" `Quick test_ls_fallback;
        ] );
    ]
