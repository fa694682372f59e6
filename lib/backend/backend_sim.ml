module Engine = Shoalpp_sim.Engine
module Netmodel = Shoalpp_sim.Netmodel

type 'msg t = {
  engine : Engine.t;
  net : 'msg Netmodel.t;
  backend : 'msg Backend.t;
}

type net_config = Netmodel.config

let default_net_config = Netmodel.default_config

let wrap_timer timer =
  {
    Backend.cancel = (fun () -> Engine.cancel timer);
    is_pending = (fun () -> Engine.is_pending timer);
  }

let clock engine =
  let now () = Engine.now engine in
  { Backend.Clock.now; monotonic = now }

let timers engine =
  {
    Backend.Timers.schedule = (fun ~after f -> wrap_timer (Engine.schedule engine ~after f));
    schedule_at = (fun ~at f -> wrap_timer (Engine.schedule_at engine ~at f));
  }

let transport net =
  {
    Backend.Transport.n = Netmodel.n net;
    send = (fun ~src ~dst ~size msg -> Netmodel.send net ~src ~dst ~size msg);
    broadcast =
      (fun ~src ~size ~include_self msg -> Netmodel.broadcast net ~src ~size ~include_self msg);
    set_handler = (fun replica f -> Netmodel.set_handler net replica f);
    stats =
      (fun () ->
        {
          Backend.Transport.sent = Netmodel.messages_sent net;
          dropped = Netmodel.messages_dropped net;
          partitioned = Netmodel.messages_partitioned net;
          bytes = Netmodel.bytes_sent net;
        });
  }

let control net =
  (* Shares the data plane's handler table: one [set_handler] receives from
     both planes. Size is accepted for interface symmetry but not charged —
     OOB traffic is invisible to the bandwidth model by design. *)
  {
    Backend.Transport.n = Netmodel.n net;
    send = (fun ~src ~dst ~size:_ msg -> Netmodel.send_oob net ~src ~dst msg);
    broadcast = (fun ~src ~size:_ ~include_self msg -> Netmodel.broadcast_oob net ~src ~include_self msg);
    set_handler = (fun replica f -> Netmodel.set_handler net replica f);
    stats =
      (fun () ->
        {
          Backend.Transport.sent = Netmodel.oob_sent net;
          dropped = 0;
          partitioned = Netmodel.oob_blocked net;
          bytes = 0.0;
        });
  }

let of_net net =
  let engine = Netmodel.engine net in
  {
    engine;
    net;
    backend =
      {
        Backend.clock = clock engine;
        timers = timers engine;
        transport = transport net;
        control = Some (control net);
      };
  }

let make ~topology ~assignment ~fault ~config ~seed () =
  let engine = Engine.create () in
  let net = Netmodel.create ~engine ~topology ~assignment ~fault ~config ~seed () in
  of_net net

let backend t = t.backend
let now t = Engine.now t.engine
let run ?until ?max_events t = Engine.run ?until ?max_events t.engine
let run_status ?until ?max_events t = Engine.run_status ?until ?max_events t.engine
let events_fired t = Engine.events_fired t.engine
let pending_events t = Engine.pending_events t.engine
let schedule_at t ~at f = wrap_timer (Engine.schedule_at t.engine ~at f)
let region_of t replica = Netmodel.region_of t.net replica
let base_delay_ms t ~src ~dst = Netmodel.base_delay_ms t.net ~src ~dst
