type timer = { cancel : unit -> unit; is_pending : unit -> bool }

module Clock = struct
  type t = { now : unit -> float; monotonic : unit -> float }
end

module Timers = struct
  type t = {
    schedule : after:float -> (unit -> unit) -> timer;
    schedule_at : at:float -> (unit -> unit) -> timer;
  }
end

module Transport = struct
  type stats = { sent : int; dropped : int; partitioned : int; bytes : float }

  type 'msg t = {
    n : int;
    send : src:int -> dst:int -> size:int -> 'msg -> unit;
    broadcast : src:int -> size:int -> include_self:bool -> 'msg -> unit;
    set_handler : int -> (src:int -> 'msg -> unit) -> unit;
    stats : unit -> stats;
  }
end

type 'msg t = {
  clock : Clock.t;
  timers : Timers.t;
  transport : 'msg Transport.t;
  control : 'msg Transport.t option;
}

let now t = t.clock.Clock.now ()
let monotonic t = t.clock.Clock.monotonic ()
let schedule t ~after f = t.timers.Timers.schedule ~after f
let schedule_at t ~at f = t.timers.Timers.schedule_at ~at f
let cancel (timer : timer) = timer.cancel ()
let is_pending (timer : timer) = timer.is_pending ()
let n t = t.transport.Transport.n
let send t ~src ~dst ~size msg = t.transport.Transport.send ~src ~dst ~size msg

let broadcast t ~src ~size ?(include_self = true) msg =
  t.transport.Transport.broadcast ~src ~size ~include_self msg

let set_handler t replica f = t.transport.Transport.set_handler replica f
let stats t = t.transport.Transport.stats ()

let control_broadcast t ~src ~size ?(include_self = true) msg =
  match t.control with
  | Some c -> c.Transport.broadcast ~src ~size ~include_self msg
  | None -> t.transport.Transport.broadcast ~src ~size ~include_self msg

let control_stats t = Option.map (fun c -> c.Transport.stats ()) t.control

let domain_local init =
  let key = Domain.DLS.new_key init in
  fun () -> Domain.DLS.get key
