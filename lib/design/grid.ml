let coordinate ~steps i =
  if steps < 2 then invalid_arg "Grid: steps < 2";
  float_of_int i /. float_of_int (steps - 1)

let sweep2 space ~base ~dim1 ~steps1 ~dim2 ~steps2 =
  Space.validate_point space base;
  let d = Space.dimension space in
  if dim1 < 0 || dim1 >= d || dim2 < 0 || dim2 >= d || dim1 = dim2 then
    invalid_arg "Grid.sweep2: bad dimensions";
  Array.init steps1 (fun i ->
      Array.init steps2 (fun j ->
          let p = Array.copy base in
          p.(dim1) <- coordinate ~steps:steps1 i;
          p.(dim2) <- coordinate ~steps:steps2 j;
          p))
