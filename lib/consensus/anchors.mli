(** Anchor scheduling: which DAG positions simulate leaders.

    The three modes correspond to the protocols compared in the paper:
    Bullshark anchors every other round; Shoal anchors every round
    (schedule re-interpretation); Shoal++ makes every eligible node of every
    round an anchor candidate (§5.2).

    Invariants:
    - {!candidates} and {!instance_anchor} are pure functions of the
      reputation state, which is itself a deterministic function of the
      committed prefix — every correct replica derives the same anchor
      schedule (Property 3 of the paper);
    - {!instance_anchor} is mode-independent, so indirect (one-shot
      Bullshark) resolution agrees across protocol variants. *)

type mode =
  | Every_other_round  (** Bullshark: one anchor in each odd round *)
  | One_per_round  (** Shoal *)
  | All_eligible  (** Shoal++: the whole reputation-eligible vector *)

val candidates : mode -> Reputation.t -> round:int -> int list
(** Anchor-candidate authors for [round], in resolution order. Empty for
    non-anchor rounds (round 0 always; even rounds under
    [Every_other_round]). *)

val instance_anchor : Reputation.t -> round:int -> int
(** The anchor a one-shot Bullshark instance uses at evaluation round
    [round] (the head of the eligible vector) — identical for all modes so
    that indirect resolution is deterministic (§5.2 "Skipping Anchor
    Candidates"). *)

(** How an anchor candidate was resolved — the commit-rule taxonomy used
    by telemetry counters and the run report's rule mix. *)
type rule =
  | Fast_direct  (** §5.1 fast rule: 2f+1 round r+1 proposals reference it *)
  | Certified_direct  (** Bullshark direct rule: f+1 certified children *)
  | Indirect_rule
  | Skipped

val all_rules : rule list

val rule_tag : rule -> string
(** Stable snake_case name ("fast_direct", ...). *)

val counter_name : rule -> string
(** Telemetry counter recording commits under [rule] ("commit.fast_direct"). *)

val mix : fast:int -> direct:int -> indirect:int -> skipped:int -> (rule * float) list
(** Fractions of all resolved anchor candidates per rule; all-zero input
    yields zero fractions (no NaNs). *)
