(* First rows of the cyclic Plackett-Burman constructions (Plackett &
   Burman 1946). The full design cycles the generator and appends an
   all-minus run. *)
let generator = function
  | 8 -> Some [| 1; 1; 1; -1; 1; -1; -1 |]
  | 12 -> Some [| 1; 1; -1; 1; 1; 1; -1; -1; -1; 1; -1 |]
  | 16 -> Some [| 1; 1; 1; 1; -1; 1; -1; 1; 1; -1; -1; 1; -1; -1; -1 |]
  | 20 ->
      Some
        [| 1; 1; -1; -1; 1; 1; 1; 1; -1; 1; -1; 1; -1; -1; -1; -1; 1; 1; -1 |]
  | 24 ->
      Some
        [|
          1; 1; 1; 1; 1; -1; 1; -1; 1; 1; -1; -1; 1; 1; -1; -1; 1; -1; 1; -1;
          -1; -1; -1;
        |]
  | _ -> None

let design ~runs =
  match generator runs with
  | None ->
      invalid_arg
        "Plackett_burman.design: supported run counts are 8, 12, 16, 20, 24"
  | Some first ->
      let k = runs - 1 in
      Array.init runs (fun i ->
          if i = runs - 1 then Array.make k (-1)
          else Array.init k (fun j -> first.((j + k - i) mod k)))

let foldover d =
  let flipped = Array.map (Array.map (fun v -> -v)) d in
  Array.append d flipped

let main_effects d responses dim =
  if Array.length d <> Array.length responses then
    invalid_arg "Plackett_burman.main_effects: length mismatch";
  Array.init dim (fun k ->
      let hi_sum = ref 0. and hi_n = ref 0 in
      let lo_sum = ref 0. and lo_n = ref 0 in
      Array.iteri
        (fun i row ->
          if row.(k) > 0 then begin
            hi_sum := !hi_sum +. responses.(i);
            incr hi_n
          end
          else begin
            lo_sum := !lo_sum +. responses.(i);
            incr lo_n
          end)
        d;
      (!hi_sum /. float_of_int (max 1 !hi_n))
      -. (!lo_sum /. float_of_int (max 1 !lo_n)))
