(** Declarative fault scenarios (§8 "failures" experiments).

    A scenario is a named, size-independent description of the faults a run
    should inject — Byzantine proposers, a timed minority partition with a
    heal, crash-then-recover with WAL replay, replicas down from the start,
    egress drops — parsed from the
    [--scenario name:key=val,...] CLI syntax. Binding to concrete replica
    ids happens only at {!schedule}/{!byzantine_for} time, against the
    actual cluster size [n], so one scenario string sweeps every system and
    committee size in [bench/main.ml]. {!schedule} materializes a scenario
    into a concrete {!Fault_schedule.t} timeline — the network and the
    cluster harness both consume that single materialization, never the
    scenario itself, so their fault views cannot disagree.

    Invariants:
    - parsing and materialization are pure: the same spec string and [n]
      always yield the same {!Fault_schedule.t} schedule and role assignment, keeping
      runs a deterministic function of the seed;
    - faulty roles are assigned from the highest replica ids downward
      (egress drops from the lowest upward), and every preset keeps the
      faulty count within [f = (n-1)/3] at its default;
    - a scenario is the only fault input of a simulated run: its specs
      materialize in list order, so {!combine} fixes the order in which
      scenarios compose;
    - {!Byzantine} specs never appear in the materialized {!Fault_schedule.t} — they
      are behavioural and injected at the replica layer via
      {!byzantine_for}. *)

(** How a Byzantine replica misbehaves:
    - [Equivocate] — send conflicting proposals for the same round to
      different halves of the committee;
    - [Silent_anchor] — withhold own proposals entirely (the "faulty
      anchor" of the reputation experiments);
    - [Delay_votes ms] — delay outgoing votes by [ms] milliseconds. *)
type byz_kind = Equivocate | Silent_anchor | Delay_votes of float

type spec =
  | Crash of { count : int; at : float; recover_at : float option }
  | Partition of { minority : int; from_time : float; until_time : float }
      (** [minority = 0] means the default [f = (n-1)/3]. *)
  | Byzantine of { count : int; kind : byz_kind; from_time : float; until_time : float }
  | Drop of { count : int; rate : float; from_time : float; until_time : float }

type t = { name : string; specs : spec list }

val none : t
(** The empty scenario: no injected faults. *)

val byzantine :
  ?count:int -> ?kind:byz_kind -> ?from_time:float -> ?until_time:float -> unit -> t
(** Preset: [count] (default 1) Byzantine replicas for the whole run,
    equivocating unless [kind] says otherwise. *)

val partition : ?minority:int -> ?from_time:float -> ?duration:float -> unit -> t
(** Preset: cut a minority of [minority] replicas (default [f]) off from
    [from_time] (default 8 s) for [duration] (default 20 s), then heal. *)

val crash_recover : ?count:int -> ?at:float -> ?recover_at:float -> unit -> t
(** Preset: crash [count] replicas (default 1) at [at] (default 5 s) and
    recover them — with WAL replay — at [recover_at] (default 15 s). *)

val crash : ?count:int -> unit -> t
(** Preset: [count] replicas (default 1) down from t=0 for the whole run
    (Fig 7). *)

val drop : ?count:int -> ?rate:float -> ?from_time:float -> unit -> t
(** Preset: from [from_time] (default 0) on, each egress message of the
    [count] lowest-id replicas (default 1) is dropped with probability
    [rate] (default 0.01) — Fig 8's disruption. *)

val combine : t list -> t
(** All the given scenarios' faults together, their specs in list order;
    named by joining their names with [+]. *)

val parse : string -> (t, string) result
(** Parse [--scenario] syntax: a preset name optionally followed by
    [:key=val,...] overrides. Recognised names: [none], [byzantine]
    (keys [count], [kind=equivocate|silent|delay], [delay], [from],
    [until]), [partition] (keys [minority], [from], [dur]),
    [crash-recover] (keys [count], [at], [recover]), [crash] (key
    [count]), [drop] (keys [count], [rate], [from]). *)

val pp : Format.formatter -> t -> unit

val name : t -> string

val schedule : t -> n:int -> Fault_schedule.t
(** Materialize the scenario's crashes, recoveries, partitions and drops
    for a cluster of [n] replicas. Byzantine specs are excluded (see
    {!byzantine_for}). *)

val byzantine_for : t -> n:int -> replica:int -> float -> byz_kind option
(** [byzantine_for t ~n ~replica time] is the misbehaviour [replica] should
    exhibit at [time], or [None] if it is honest (then or always). The
    partial application per replica is cheap and pure. *)

val has_byzantine : t -> bool

val crash_recoveries : t -> n:int -> (int * float * float) list
(** [(replica, crash_at, recover_at)] for every crash spec with a recovery —
    the runtime schedules a WAL-replay restart for each. *)

val has_recovery : t -> bool
(** True iff some crash spec recovers — the runtime then retains WAL
    payloads for replay. *)

val partition_windows : t -> n:int -> (float * float * int) list
(** [(from_time, until_time, minority_size)] per partition spec, for
    scheduling open/heal trace events. *)

val schedule_events :
  t ->
  n:int ->
  schedule_at:(float -> (unit -> unit) -> unit) ->
  crash:(int -> unit) ->
  recover:(int -> unit) ->
  partition:(opened:bool -> time:float -> minority:int -> unit) ->
  unit
(** Arm the scenario's runtime events through [schedule_at time f]: a
    [crash] for every scenario crash that needs a runtime crash event
    (mid-run crashes; t=0 crashes without recovery are handled by each
    harness's start-up path), a [recover] for each of
    {!crash_recoveries}, and per partition window a [partition ~opened:true]
    at its start and, if it heals, a [partition ~opened:false] at its end.
    Every system's harness arms its scenario through this one function,
    and the timers are always scheduled in that order, so the engine
    breaks ties between them the same way for every system. *)
