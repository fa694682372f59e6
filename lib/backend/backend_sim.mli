(** Deterministic simulation executor behind {!Backend}.

    Wraps the discrete-event {!Shoalpp_sim.Engine} and the
    {!Shoalpp_sim.Netmodel} network in delegating closures. The wrapping is
    pure indirection: every [schedule]/[send]/[broadcast] maps 1:1 onto the
    underlying call in the same order, so runs are byte-identical to
    pre-backend code — the golden determinism traces hold unchanged.

    Also bundles the engine + network construction ({!make}) so harnesses
    (cluster, baselines) need not name the simulator modules at all.

    Invariants:
    - pure delegation: no wall clock, OS randomness or I/O — every notion of
      time comes from the discrete-event engine's virtual clock, and every
      send/broadcast is an engine-scheduled Netmodel delivery;
    - callback ordering is exactly the engine's queue order, so a run is a
      pure function of (config, topology, seed) and golden digests hold. *)

type 'msg t = {
  engine : Shoalpp_sim.Engine.t;
  net : 'msg Shoalpp_sim.Netmodel.t;
  backend : 'msg Backend.t;
}
(** A simulated "world": one engine, one network, and the backend view of
    them handed to replicas. *)

type net_config = Shoalpp_sim.Netmodel.config

val default_net_config : net_config

val make :
  topology:Shoalpp_sim.Topology.t ->
  assignment:int array ->
  fault:Shoalpp_sim.Faults.timeline ->
  config:net_config ->
  seed:int ->
  unit ->
  'msg t
(** Fresh engine + network, wrapped. *)

val of_net : 'msg Shoalpp_sim.Netmodel.t -> 'msg t
(** Wrap an existing network (and its engine) — for tests that build the
    network themselves. *)

val backend : 'msg t -> 'msg Backend.t

(** Engine-level views for executors and tests. *)

val clock : Shoalpp_sim.Engine.t -> Backend.Clock.t
val timers : Shoalpp_sim.Engine.t -> Backend.Timers.t

val now : _ t -> float
val run : ?until:float -> ?max_events:int -> _ t -> unit
val run_status : ?until:float -> ?max_events:int -> _ t -> Shoalpp_sim.Engine.stop_reason
val events_fired : _ t -> int
val pending_events : _ t -> int
val schedule_at : _ t -> at:float -> (unit -> unit) -> Backend.timer

val region_of : _ t -> int -> int
val base_delay_ms : _ t -> src:int -> dst:int -> float
