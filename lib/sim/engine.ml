module Heap = Shoalpp_support.Heap

(* The due time and tie-break live in the queue; a timer is its action. *)
type timer = { mutable action : (unit -> unit) option }

type t = {
  queue : timer Heap.t;
  mutable clock : float;
  mutable fired : int;
}

let create () = { queue = Heap.create (); clock = 0.0; fired = 0 }

let now t = t.clock

let schedule_at t ~at f =
  let at = if at < t.clock then t.clock else at in
  let timer = { action = Some f } in
  Heap.add t.queue ~at timer;
  timer

let schedule t ~after f = schedule_at t ~at:(t.clock +. Float.max after 0.0) f

let cancel timer = timer.action <- None
let is_pending timer = Option.is_some timer.action

let rec step t =
  if Heap.is_empty t.queue then false
  else begin
    let at = Heap.min_at t.queue in
    match (Heap.pop_exn t.queue).action with
    | None -> step t (* cancelled; skip *)
    | Some f ->
      t.clock <- at;
      t.fired <- t.fired + 1;
      f ();
      true
  end

type stop_reason = Horizon_reached | Queue_drained | Budget_exhausted

(* Pop cancelled timers off the top of the queue so [peek] reflects the next
   event that will actually fire. Without this, a cancelled timer sitting
   below the horizon could let [run ~until] step past it into an event
   beyond the horizon. Dropping dead timers costs no budget (they are not
   events; [step] never counted them as fired either). *)
let rec drop_cancelled t =
  match Heap.peek t.queue with
  | Some { action = None } ->
    ignore (Heap.pop t.queue);
    drop_cancelled t
  | _ -> ()

let run_status ?until ?(max_events = max_int) t =
  let budget = ref max_events in
  (* The next live event due at or before the horizon, if any. *)
  let horizon = match until with Some h -> h | None -> infinity in
  let due () =
    drop_cancelled t;
    (not (Heap.is_empty t.queue)) && Heap.min_at t.queue <= horizon
  in
  while !budget > 0 && due () do
    decr budget;
    ignore (step t)
  done;
  (* Decide on the queue's state, not on leftover budget: a run whose budget
     expires exactly as the queue drains has still reached the horizon. *)
  if due () then Budget_exhausted
  else (
    match until with
    | Some horizon ->
      if t.clock < horizon then t.clock <- horizon;
      Horizon_reached
    | None -> Queue_drained)

let run ?until ?max_events t = ignore (run_status ?until ?max_events t)

let pending_events t = Heap.length t.queue
let events_fired t = t.fired
