module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store

let default_page = 128
let default_retry_ms = 400.0

module Server = struct
  type t = {
    store : Store.t;
    checkpoint : unit -> string option;
    page : int;
    mutable requests_served : int;
    mutable certs_served : int;
  }

  let create ?(page = default_page) ~store ~checkpoint () =
    if page < 1 then invalid_arg "Sync.Server.create: need page >= 1";
    { store; checkpoint; page; requests_served = 0; certs_served = 0 }

  (* Rounds are served whole (the cursor is a round number, so the
     requester can resume even against a different server whose paging
     differs); a page stops before the round that would overflow it, except
     that the first round of a page is always included — progress is
     guaranteed even when one round alone exceeds the page budget. *)
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
    | Types.Get_highest_round ->
      Types.Highest_round
        {
          hr_highest = Store.highest_round t.store;
          hr_lowest = Store.lowest_stored t.store;
        }
    | Types.Get_certificates_in_range { sr_from; sr_to; sr_cursor } ->
      let certs, has_more, next = certs_page t ~from_:sr_from ~to_:sr_to ~cursor:sr_cursor in
      t.certs_served <- t.certs_served + List.length certs;
      Types.Certificates { sc_certs = certs; sc_has_more = has_more; sc_next = next }
    | Types.Get_checkpoint -> Types.Checkpoint_blob { cb_blob = t.checkpoint () }

  let requests_served t = t.requests_served
  let certs_served t = t.certs_served
end

module Client = struct
  type hooks = {
    send : dst:int -> Types.sync_request -> unit;
    ingest : Types.certified_node -> unit;
    schedule : after:float -> (unit -> unit) -> unit;
    on_caught_up : unit -> unit;
  }

  type fetching = { target : int; mutable cursor : int }
  type phase = Idle | Probing | Fetching of fetching | Done

  type t = {
    n : int;
    self : int;
    retry_ms : float;
    hooks : hooks;
    mutable phase : phase;
    mutable from_ : int;
    mutable attempt : int; (* deterministic peer-rotation counter *)
    mutable gen : int; (* request generation; stale retry timers check it *)
    mutable requests_sent : int;
    mutable responses_handled : int;
    mutable certs_ingested : int;
    mutable retries : int;
  }

  let create ~n ~self ?(retry_ms = default_retry_ms) hooks =
    {
      n;
      self;
      retry_ms;
      hooks;
      phase = Idle;
      from_ = 0;
      attempt = 0;
      gen = 0;
      requests_sent = 0;
      responses_handled = 0;
      certs_ingested = 0;
      retries = 0;
    }

  let peer t =
    let p = (t.self + 1 + t.attempt) mod t.n in
    if p = t.self then (p + 1) mod t.n else p

  let awaiting t = match t.phase with Probing | Fetching _ -> true | Idle | Done -> false

  let rec send_req t req =
    t.requests_sent <- t.requests_sent + 1;
    t.hooks.send ~dst:(peer t) req;
    t.gen <- t.gen + 1;
    let g = t.gen in
    t.hooks.schedule ~after:t.retry_ms (fun () ->
        if t.gen = g && awaiting t then begin
          t.retries <- t.retries + 1;
          t.attempt <- t.attempt + 1;
          resend t
        end)

  and resend t =
    match t.phase with
    | Probing -> send_req t Types.Get_highest_round
    | Fetching f ->
      send_req t
        (Types.Get_certificates_in_range
           { sr_from = t.from_; sr_to = f.target; sr_cursor = f.cursor })
    | Idle | Done -> ()

  let finish t =
    t.phase <- Done;
    t.hooks.on_caught_up ()

  let start t ~from =
    t.from_ <- max 0 from;
    if t.n <= 1 then finish t
    else begin
      t.phase <- Probing;
      send_req t Types.Get_highest_round
    end

  let handle_response t (resp : Types.sync_response) =
    match (t.phase, resp) with
    | Probing, Types.Highest_round { hr_highest; hr_lowest } ->
      t.responses_handled <- t.responses_handled + 1;
      if hr_highest < t.from_ then finish t
      else begin
        (* Rounds below the peer's floor are pruned cluster-wide: the
           certified checkpoint covers them, so skipping ahead is safe. *)
        t.from_ <- max t.from_ hr_lowest;
        let f = { target = hr_highest; cursor = t.from_ } in
        t.phase <- Fetching f;
        send_req t
          (Types.Get_certificates_in_range
             { sr_from = t.from_; sr_to = f.target; sr_cursor = f.cursor })
      end
    | Fetching f, Types.Certificates { sc_certs; sc_has_more; sc_next } ->
      t.responses_handled <- t.responses_handled + 1;
      List.iter
        (fun cn ->
          t.certs_ingested <- t.certs_ingested + 1;
          t.hooks.ingest cn)
        sc_certs;
      if not sc_has_more then finish t
      else if sc_next > f.cursor then begin
        f.cursor <- sc_next;
        send_req t
          (Types.Get_certificates_in_range
             { sr_from = t.from_; sr_to = f.target; sr_cursor = sc_next })
      end
      else begin
        (* A page that advances nothing (responder pruned the range since
           probing, or is lagging us): rotate to another peer. *)
        t.attempt <- t.attempt + 1;
        resend t
      end
    | (Idle | Done | Probing | Fetching _), _ -> ()

  let phase t = t.phase
  let finished t = match t.phase with Done -> true | _ -> false
  let requests_sent t = t.requests_sent
  let responses_handled t = t.responses_handled
  let certs_ingested t = t.certs_ingested
  let retries t = t.retries
end
