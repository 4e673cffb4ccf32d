type unit_ = { stage : string; lo : int; hi : int }

let units ~stage ~count ~chunk =
  if chunk < 1 then invalid_arg "Plan.units: chunk < 1";
  if count < 0 then invalid_arg "Plan.units: count < 0";
  let n_units = (count + chunk - 1) / chunk in
  Array.init n_units (fun k ->
      { stage; lo = k * chunk; hi = min count ((k + 1) * chunk) })
