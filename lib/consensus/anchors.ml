type mode = Every_other_round | One_per_round | All_eligible

let head = function [] -> [] | x :: _ -> [ x ]

let candidates mode reputation ~round =
  if round <= 0 then []
  else begin
    match mode with
    | Every_other_round ->
      if round mod 2 = 1 then head (Reputation.eligible reputation ~round ~slot:((round - 1) / 2))
      else []
    | One_per_round -> head (Reputation.eligible reputation ~round ~slot:round)
    | All_eligible -> Reputation.eligible reputation ~round ~slot:round
  end

let instance_anchor reputation ~round =
  match Reputation.eligible reputation ~round ~slot:round with
  | a :: _ -> a
  | [] -> 0 (* unreachable: eligible never returns empty for n >= 1 *)

type rule = Fast_direct | Certified_direct | Indirect_rule | Skipped

let all_rules = [ Fast_direct; Certified_direct; Indirect_rule; Skipped ]

let rule_tag = function
  | Fast_direct -> "fast_direct"
  | Certified_direct -> "certified_direct"
  | Indirect_rule -> "indirect"
  | Skipped -> "skipped"

let counter_name rule = "commit." ^ rule_tag rule

(* Commit-rule mix as fractions of all resolved anchor candidates; an
   all-zero input yields an all-zero mix rather than NaNs. *)
let mix ~fast ~direct ~indirect ~skipped =
  let total = fast + direct + indirect + skipped in
  let frac c = if total = 0 then 0.0 else float_of_int c /. float_of_int total in
  [
    (Fast_direct, frac fast);
    (Certified_direct, frac direct);
    (Indirect_rule, frac indirect);
    (Skipped, frac skipped);
  ]
