module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store

let default_page = 128

(* Silence from the asked peer for this long moves a request on. *)
let retry_ms = 400.0

module Server = struct
  type t = {
    store : Store.t;
    checkpoint : unit -> string option;
    page : int;
    mutable requests_served : int;
  }

  let create ?(page = default_page) ~store ~checkpoint () =
    if page < 1 then invalid_arg "Sync.Server.create: need page >= 1";
    { store; checkpoint; page; requests_served = 0 }

  (* Rounds are served whole (the cursor is a round number, so the
     requester can resume even against a different server whose paging
     differs); a page stops before the round that would overflow it, except
     that the first round of a page is always included — progress is
     guaranteed even when one round alone exceeds the page budget. Rounds
     below the physical floor are pruned under a certified checkpoint, so
     a page asked from below it starts there. *)
  let certs_page t ~from_ ~to_ ~cursor =
    let r0 = max (max from_ cursor) (Store.lowest_stored t.store) in
    let r1 = min to_ (Store.highest_round t.store) in
    let acc = ref [] in
    let count = ref 0 in
    let r = ref r0 in
    let full = ref false in
    while (not !full) && !r <= r1 do
      let nodes = Store.nodes_at t.store ~round:!r in
      let k = List.length nodes in
      if !count > 0 && !count + k > t.page then full := true
      else begin
        acc := List.rev_append nodes !acc;
        count := !count + k;
        incr r
      end
    done;
    (List.rev !acc, !r <= r1, !r)

  let handle t (req : Types.sync_request) : Types.sync_response =
    t.requests_served <- t.requests_served + 1;
    match req with
    | Types.Get_certificates_in_range { sr_from; sr_to; sr_cursor } ->
      let certs, has_more, next = certs_page t ~from_:sr_from ~to_:sr_to ~cursor:sr_cursor in
      Types.Certificates
        {
          sc_certs = certs;
          sc_has_more = has_more;
          sc_next = next;
          sc_highest = Store.highest_round t.store;
        }
    | Types.Get_checkpoint -> Types.Checkpoint_blob { cb_blob = t.checkpoint () }

  let requests_served t = t.requests_served
end

module Client = struct
  type hooks = {
    send : dst:int -> lane:int -> Types.sync_request -> unit;
    schedule : after:float -> (unit -> unit) -> unit;
    adopt : string option -> bool;
    replay : unit -> int array;
    ingest : lane:int -> Types.certified_node -> unit;
    on_caught_up : unit -> unit;
  }

  type lane = {
    mutable from_ : int; (* the local frontier paging starts at *)
    mutable target : int; (* pinned by the first page; max_int until then *)
    mutable cursor : int;
    mutable waiting : int; (* generation of the request awaited; -1 = none *)
  }

  type t = {
    n : int;
    self : int;
    hooks : hooks;
    lanes : lane array; (* the adopt phase's request waits in lane 0 *)
    mutable adopting : bool;
    mutable open_lanes : int; (* lanes still paging *)
    mutable attempt : int; (* the one deterministic peer rotation *)
    mutable gen : int; (* request generation; a retry fires only for the newest *)
    mutable requests_sent : int;
    mutable certs_ingested : int;
  }

  let create ~n ~self ~lanes hooks =
    if n < 2 then invalid_arg "Sync.Client.create: need a peer";
    {
      n;
      self;
      hooks;
      lanes = Array.init lanes (fun _ -> { from_ = 0; target = max_int; cursor = 0; waiting = -1 });
      adopting = false;
      open_lanes = 0;
      attempt = 0;
      gen = 0;
      requests_sent = 0;
      certs_ingested = 0;
    }

  let peer t =
    let p = (t.self + 1 + t.attempt) mod t.n in
    if p = t.self then (p + 1) mod t.n else p

  let rec send t ~lane req =
    let l = t.lanes.(lane) in
    t.requests_sent <- t.requests_sent + 1;
    t.gen <- t.gen + 1;
    let g = t.gen in
    l.waiting <- g;
    t.hooks.send ~dst:(peer t) ~lane req;
    t.hooks.schedule ~after:retry_ms (fun () ->
        if l.waiting = g then begin
          t.attempt <- t.attempt + 1;
          if t.adopting then ask_checkpoint t else page t lane
        end)

  (* Phase 1: a [None] answer, an unverifiable blob or silence moves to the
     next peer; after two passes over the committee, page without. *)
  and ask_checkpoint t =
    if t.attempt < 2 * t.n then send t ~lane:0 Types.Get_checkpoint else begin_paging t

  (* Phase 2: every lane pages from its frontier, the first page open-ended. *)
  and begin_paging t =
    t.adopting <- false;
    let frontiers = t.hooks.replay () in
    t.open_lanes <- Array.length t.lanes;
    Array.iteri
      (fun d l ->
        l.from_ <- max 0 frontiers.(d);
        l.target <- max_int;
        l.cursor <- l.from_;
        page t d)
      t.lanes

  and page t lane =
    let l = t.lanes.(lane) in
    send t ~lane
      (Types.Get_certificates_in_range { sr_from = l.from_; sr_to = l.target; sr_cursor = l.cursor })

  let start t =
    Array.iter (fun l -> l.waiting <- -1) t.lanes;
    t.adopting <- true;
    t.open_lanes <- 0;
    t.attempt <- 0;
    t.requests_sent <- 0;
    t.certs_ingested <- 0;
    ask_checkpoint t

  let handle_response t ~lane (resp : Types.sync_response) =
    match resp with
    | Types.Checkpoint_blob { cb_blob } when t.adopting ->
      if t.hooks.adopt cb_blob then begin_paging t
      else begin
        t.attempt <- t.attempt + 1;
        ask_checkpoint t
      end
    | Types.Certificates { sc_certs; sc_has_more; sc_next; sc_highest }
      when (not t.adopting) && lane >= 0 && lane < Array.length t.lanes
           && t.lanes.(lane).waiting >= 0 ->
      let l = t.lanes.(lane) in
      List.iter
        (fun cn ->
          t.certs_ingested <- t.certs_ingested + 1;
          t.hooks.ingest ~lane cn)
        sc_certs;
      if l.target = max_int then l.target <- sc_highest;
      if not sc_has_more then begin
        l.waiting <- -1;
        t.open_lanes <- t.open_lanes - 1;
        if t.open_lanes = 0 then t.hooks.on_caught_up ()
      end
      else begin
        (* A page that advances nothing (the responder pruned the range or
           lags us): rotate to another peer. *)
        if sc_next > l.cursor then l.cursor <- sc_next else t.attempt <- t.attempt + 1;
        page t lane
      end
    | Types.Checkpoint_blob _ | Types.Certificates _ -> ()

  let active t = t.adopting || t.open_lanes > 0
  let requests_sent t = t.requests_sent
  let certs_ingested t = t.certs_ingested
end
