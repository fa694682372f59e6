module Backend = Shoalpp_backend.Backend
module Heap = Shoalpp_support.Heap
module Rng = Shoalpp_support.Rng

(* One mutex per arrival group covers the group's id counter, its
   clients' schedules and every member pool's queue: an operation on any
   pool catches up the whole group and then acts, atomically. Every run
   puts all its pools in one group (one shared id counter); the multicore
   node's lane domains pull under that mutex while the main domain
   requeues and stops clients. *)

(* One open-loop client. [next_at] is the due time of its next arrival;
   the group's due-time queue holds it once, under the [next_at] it had
   when queued (the queue keeps that key, so its order never reads a field
   another operation may write), left in place when the client stops and
   dropped when it surfaces. *)
type source = {
  pool : t;
  origin : int;
  tx_size : int;
  mean_gap_ms : float;
  rng : Rng.t; (* drawn only under the group's mutex *)
  mutable next_at : float; [@shoalpp.guarded_by "mu"]
  mutable generated : int; [@shoalpp.guarded_by "mu"]
  mutable live : bool; [@shoalpp.guarded_by "mu"]
}

and group = {
  mu : Mutex.t;
  clock : Backend.Clock.t option; (* [None]: a pool that never gets clients *)
  mutable next_id : int; [@shoalpp.guarded_by "mu"]
  (* Due-time ties break in scheduling order, as the engine's timers do. *)
  due : source Heap.t; [@shoalpp.guarded_by "mu"]
}

and t = {
  group : group;
  q : Transaction.t Queue.t; [@shoalpp.guarded_by "mu"]
  max_pending : int;
  mutable submitted : int; [@shoalpp.guarded_by "mu"]
  mutable rejected : int; [@shoalpp.guarded_by "mu"]
}

let make_group clock = { mu = Mutex.create (); clock; next_id = 0; due = Heap.create () }
let group ~clock () = make_group (Some clock)

let create ?(max_pending = max_int) ?group () =
  let group = match group with Some g -> g | None -> make_group None in
  { group; q = Queue.create (); max_pending; submitted = 0; rejected = 0 }

let push t tx =
  if Queue.length t.q >= t.max_pending then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    Queue.push tx t.q;
    t.submitted <- t.submitted + 1;
    true
  end
[@@shoalpp.requires_lock "mu"]

let schedule g src =
  Heap.add g.due ~at:src.next_at src
[@@shoalpp.requires_lock "mu"]

(* The arrival due at [src.next_at], stamped with that due time. *)
let arrive g src =
  let id = g.next_id in
  g.next_id <- id + 1;
  ignore
    (push src.pool
       (Transaction.make ~id ~size:src.tx_size ~submitted_at:src.next_at ~origin:src.origin ()));
  src.generated <- src.generated + 1;
  src.next_at <- src.next_at +. Rng.exponential src.rng src.mean_gap_ms;
  schedule g src
[@@shoalpp.requires_lock "mu"]

(* Materialize every arrival of the group due at or before now, in
   (due time, scheduling order): ids follow the order the clients' own
   timers would have fired in. Entries of stopped clients are dropped as
   they surface. *)
let catch_up g =
  match g.clock with
  | Some clock when not (Heap.is_empty g.due) ->
    let now = clock.Backend.Clock.now () in
    while Heap.min_at g.due <= now do
      let src = Heap.pop_exn g.due in
      if src.live then arrive g src
    done
  | _ -> ()
[@@shoalpp.requires_lock "mu"]

(* Every operation on a pool: lock its group, catch the group up to
   now, then act — so what the operation sees includes every arrival due
   by now, stamped with its due time. *)
let with_mu t f =
  let g = t.group in
  Mutex.lock g.mu;
  match
    catch_up g;
    f ()
  with
  | v ->
    Mutex.unlock g.mu;
    v
  | exception e ->
    Mutex.unlock g.mu;
    raise e

let submit t tx = with_mu t (fun () -> push t tx)

let pull t ~max =
  with_mu t (fun () ->
      let rec go acc k =
        if k = 0 || Queue.is_empty t.q then List.rev acc
        else go (Queue.pop t.q :: acc) (k - 1)
      in
      go [] max)

let peek_pending t = with_mu t (fun () -> Queue.length t.q)
let submitted t = with_mu t (fun () -> t.submitted)
let rejected t = with_mu t (fun () -> t.rejected)

let oldest_waiting t =
  with_mu t (fun () ->
      match Queue.peek_opt t.q with
      | None -> None
      | Some tx -> Some tx.Transaction.submitted_at)

let attach t ~origin ~mean_gap_ms ~tx_size ~rng =
  match t.group.clock with
  | None -> invalid_arg "Mempool.attach: the pool belongs to no arrival group"
  | Some clock ->
    with_mu t (fun () ->
        let src =
          {
            pool = t;
            origin;
            tx_size;
            mean_gap_ms;
            rng;
            next_at = clock.Backend.Clock.now () +. Rng.exponential rng mean_gap_ms;
            generated = 0;
            live = true;
          }
        in
        schedule t.group src;
        src)

let detach src =
  with_mu src.pool (fun () -> src.live <- false)

let generated src = with_mu src.pool (fun () -> src.generated)
