(** Observability context threaded through protocol components.

    Bundles an optional typed {!Trace.t} and an optional
    {!Shoalpp_support.Telemetry.t} with the identity of the recording
    component (replica id, parallel-DAG instance id). Components take an
    [?obs] argument defaulting to {!none}; a disabled context costs one
    branch per instrumentation site.

    Invariants:
    - recording through a disabled context ({!none}, or a missing trace /
      telemetry half) is a silent no-op — protocol behaviour is identical
      with observability on or off;
    - every record carries the context's replica and instance ids, so
      events from k parallel DAG lanes stay attributable. *)

module Telemetry = Shoalpp_support.Telemetry

type t = {
  replica : int;
  instance : int;
  trace : Trace.t option;
  telemetry : Telemetry.t option;
}

val make : ?trace:Trace.t -> ?telemetry:Telemetry.t -> replica:int -> instance:int -> unit -> t
val none : t
val with_instance : t -> instance:int -> t

val event : t -> time:float -> Trace.kind -> unit
val incr : ?by:int -> t -> string -> unit
val set : t -> string -> float -> unit

(** Cached-handle access for hot paths ([None] when telemetry is off). *)

val counter : t -> string -> Telemetry.counter option
val incr_c : ?by:int -> Telemetry.counter option -> unit
