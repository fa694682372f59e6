module Types = Shoalpp_dag.Types
module Driver = Shoalpp_consensus.Driver

type t = {
  ready : Driver.segment Queue.t array; (* per lane: committed, not yet merged *)
  (* The cursor: lane [lane]'s output for [round] is merged next. [closed]:
     the last segment popped closed it, so the cursor moves on at the next
     [pop], once the caller has taken that segment in. *)
  mutable round : int;
  mutable lane : int;
  mutable closed : bool;
}

let create ~lanes =
  { ready = Array.init lanes (fun _ -> Queue.create ()); round = 0; lane = 0; closed = false }

let push t (segment : Driver.segment) = Queue.push segment t.ready.(segment.Driver.dag_id)

let next_lane t ~on_round =
  if t.lane + 1 < Array.length t.ready then t.lane <- t.lane + 1
  else begin
    on_round t.round;
    t.lane <- 0;
    t.round <- t.round + 1
  end

(* Lane [lane]'s head segment: of the cursor's round, it is merged; of a
   higher round, the lane closed the cursor's round implicitly. *)
let rec pop t ~on_round =
  if t.closed then begin
    t.closed <- false;
    next_lane t ~on_round
  end;
  let q = t.ready.(t.lane) in
  match Queue.peek_opt q with
  | None -> None
  | Some segment when segment.Driver.anchor.Types.ref_round > t.round ->
    next_lane t ~on_round;
    pop t ~on_round
  | Some segment ->
    ignore (Queue.pop q);
    t.closed <- segment.Driver.closes;
    Some segment

let restart t ~round =
  Array.iter Queue.clear t.ready;
  t.round <- round;
  t.lane <- 0;
  t.closed <- false

let pending t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.ready
