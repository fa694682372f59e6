(* Observability context threaded through protocol components.

   Bundles the (optional) typed trace ring and the (optional) telemetry
   registry with the identity of the recording component — replica id and
   parallel-DAG instance id — so instrumentation sites are one-liners and
   a fully disabled context costs one branch per site. *)

module Telemetry = Shoalpp_support.Telemetry

type t = {
  replica : int;
  instance : int;
  trace : Trace.t option;
  telemetry : Telemetry.t option;
}

let make ?trace ?telemetry ~replica ~instance () = { replica; instance; trace; telemetry }
let none = { replica = 0; instance = 0; trace = None; telemetry = None }
let with_instance t ~instance = { t with instance }

let event t ~time kind =
  match t.trace with
  | Some tr -> Trace.record_event tr ~time ~replica:t.replica ~instance:t.instance kind
  | None -> ()

let incr ?by t name =
  match t.telemetry with Some reg -> Telemetry.incr_named ?by reg name | None -> ()

let set t name v =
  match t.telemetry with Some reg -> Telemetry.set_named reg name v | None -> ()

(* Cached-handle access for hot paths: [None] when telemetry is off. *)
let counter t name = Option.map (fun reg -> Telemetry.counter reg name) t.telemetry
let incr_c ?by c = match c with Some c -> Telemetry.incr ?by c | None -> ()
