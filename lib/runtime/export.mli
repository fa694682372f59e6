(** Trace and metrics exporters.

    Three output shapes, all dependency-free:

    - {b JSONL}: one JSON object per trace event
      ([{"ts":..,"replica":..,"instance":..,"tag":..,<kind fields>}]) —
      greppable, streamable, round-trippable via {!events_of_jsonl};
    - {b Chrome trace_event}: instant events with [pid] = replica and
      [tid] = DAG instance, loadable in Perfetto / [chrome://tracing];
    - {b metrics snapshot}: the telemetry registry (counters, gauges,
      histogram summaries) as one JSON object.

    Invariants:
    - exporting is read-only and pure: the same events / snapshot always
      produce byte-identical output, so exports are diffable across runs;
    - JSONL round-trips: [events_of_jsonl (jsonl_of_events evs) = evs] for
      every non-[Custom] event kind; unknown tags decode as [Custom] rather
      than being dropped. *)

(** Minimal JSON encoder/parser (enough for what this module emits). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val to_buf : Buffer.t -> t -> unit

  val parse : string -> t option
  (** [None] on malformed input. Numbers parse as [Int] when they have
      integer syntax, [Float] otherwise. *)

  val member : string -> t -> t option
  val to_float_opt : t -> float option
  (** Accepts [Int] too. *)

  val to_int_opt : t -> int option
  val to_string_opt : t -> string option
end

val jsonl_of_events : Shoalpp_sim.Trace.event list -> string
val events_of_jsonl : string -> Shoalpp_sim.Trace.event list
(** Skips blank and malformed lines. *)

val write_jsonl : out_channel -> Shoalpp_sim.Trace.event list -> unit

val chrome_trace : Shoalpp_sim.Trace.event list -> string
val write_chrome_trace : out_channel -> Shoalpp_sim.Trace.event list -> unit

val json_of_snapshot : Shoalpp_support.Telemetry.snapshot -> Json.t
val metrics_json : Shoalpp_support.Telemetry.snapshot -> string
val write_metrics : out_channel -> Shoalpp_support.Telemetry.snapshot -> unit
