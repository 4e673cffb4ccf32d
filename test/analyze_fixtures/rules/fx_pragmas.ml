(* archpred-analyze: allow no-such-rule -- why *)
let unknown = 1
(* archpred-analyze: allow exit *)
let no_reason () = exit 1
let same_line () = exit 2 (* archpred-analyze: allow exit -- same line *)
