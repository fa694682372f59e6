(* Verification pool.

   Jobs are (lane, closure) pairs; each closure is a CPU-bound check (in
   practice: signature/certificate verification of one inbound message).
   Workers are OCaml domains pulling from one shared FIFO queue.

   The ordering contract is the whole point: completions are delivered per
   lane IN SUBMISSION ORDER, no matter which worker finished which job
   first. Each job gets a lane-local sequence number at submit; a finished
   job parks in the lane's reorder table until every earlier job of that
   lane has been delivered. This is what lets the node verify messages in
   parallel while the per-lane message stream — and therefore the commit
   interleave — stays exactly as sequential execution would produce it. *)

type job = {
  j_lane : int;
  j_seq : int;
  j_work : unit -> bool;
  j_k : bool -> unit;
}

(* Every mutable field below except [domains] is guarded by [mu] (the
   [@shoalpp.guarded_by] declarations are machine-checked by tools/lint's
   lock-discipline rule). [domains] is touched only by the owning thread
   (create/shutdown/workers), never by workers or submitters. *)
type lane = {
  mutable l_next_seq : int; [@shoalpp.guarded_by "mu"] (* next sequence number to assign *)
  mutable l_next_deliver : int; [@shoalpp.guarded_by "mu"] (* next to hand to a sink *)
  l_ready : (int, bool * (bool -> unit)) Hashtbl.t; [@shoalpp.guarded_by "mu"]
      (* finished, undelivered *)
  mutable l_delivering : bool; [@shoalpp.guarded_by "mu"] (* one worker walks the lane *)
}

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  queue : job Queue.t; [@shoalpp.guarded_by "mu"]
  mutable closing : bool; [@shoalpp.guarded_by "mu"]
  mutable inflight : int; [@shoalpp.guarded_by "mu"]
  lanes : lane array; [@shoalpp.guarded_by "mu"]
  mutable executed : int; [@shoalpp.guarded_by "mu"]
  mutable work_exns : int; [@shoalpp.guarded_by "mu"]
  mutable sink_exns : int; [@shoalpp.guarded_by "mu"]
  mutable domains : unit Domain.t array;
}

let with_mu t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
    Mutex.unlock t.mu;
    v
  | exception e ->
    Mutex.unlock t.mu;
    raise e

(* Deliver every contiguous completed job of [ln], calling sinks with the
   mutex RELEASED (a sink may re-enter the executor, post across domains,
   or take other locks). [l_delivering] makes the walk single-writer: a
   second worker completing a job of the same lane just parks its result
   and leaves; the walking worker's re-check after relocking picks it up.
   Called and returns with the mutex held. *)
let deliver t ln =
  if not ln.l_delivering then begin
    ln.l_delivering <- true;
    let rec walk () =
      match Hashtbl.find_opt ln.l_ready ln.l_next_deliver with
      | Some (ok, k) ->
        Hashtbl.remove ln.l_ready ln.l_next_deliver;
        ln.l_next_deliver <- ln.l_next_deliver + 1;
        Mutex.unlock t.mu;
        (* note the raise flag while unlocked, count it after relocking:
           [sink_exns] is mutex-guarded state and another worker may be
           counting its own sink failure concurrently *)
        let sink_raised =
          match k ok with () -> false | exception _ -> true
        in
        Mutex.lock t.mu;
        if sink_raised then t.sink_exns <- t.sink_exns + 1;
        walk ()
      | None -> ()
    in
    walk ();
    ln.l_delivering <- false
  end
[@@shoalpp.requires_lock "mu"]

let complete t j ~ok ~raised =
  with_mu t (fun () ->
      t.executed <- t.executed + 1;
      t.inflight <- t.inflight - 1;
      if raised then t.work_exns <- t.work_exns + 1;
      Hashtbl.replace t.lanes.(j.j_lane).l_ready j.j_seq (ok, j.j_k);
      deliver t t.lanes.(j.j_lane))

(* The oldest queued job. Blocks on the condition until work arrives or
   the pool closes; returns [None] only when closing with the queue empty.
   Called and returns with the mutex held. *)
let rec take t =
  match Queue.take_opt t.queue with
  | Some _ as j -> j
  | None ->
    if t.closing then None
    else begin
      Condition.wait t.cond t.mu;
      take t
    end
[@@shoalpp.requires_lock "mu"]

let worker t () =
  let rec loop () =
    match with_mu t (fun () -> take t) with
    | None -> ()
    | Some j ->
      let ok, raised = (try (j.j_work (), false) with _ -> (false, true)) in
      complete t j ~ok ~raised;
      loop ()
  in
  loop ()

let create ~workers ~lanes =
  let workers = max 0 workers and lanes = max 1 lanes in
  let t =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      closing = false;
      inflight = 0;
      lanes =
        Array.init lanes (fun _ ->
            {
              l_next_seq = 0;
              l_next_deliver = 0;
              l_ready = Hashtbl.create 16;
              l_delivering = false;
            });
      executed = 0;
      work_exns = 0;
      sink_exns = 0;
      domains = [||];
    }
  in
  t.domains <- Array.init workers (fun _ -> Domain.spawn (worker t));
  t

let run_inline t ~work ~k =
  let ok, raised = (try (work (), false) with _ -> (false, true)) in
  with_mu t (fun () ->
      t.executed <- t.executed + 1;
      if raised then t.work_exns <- t.work_exns + 1);
  try k ok with _ -> with_mu t (fun () -> t.sink_exns <- t.sink_exns + 1)

(* The shutdown contract is a clean line through time: every job whose
   submit returned before [shutdown] began is drained and delivered in
   lane order; a submit that observes [closing] raises. Nothing is ever
   silently dropped, and nothing runs inline on the submitter once a pool
   has workers — an inline run would bypass the lane's reorder table and
   could deliver ahead of that lane's still-parked predecessors. The
   inline (workers = 0) mode keeps the same line: it raises on submit
   after shutdown exactly like the pooled mode. *)
let reject () = invalid_arg "Verify_pool.submit: pool is shut down"

let submit t ~lane ~work ~k =
  if Array.length t.domains = 0 then begin
    if with_mu t (fun () -> t.closing) then reject ();
    run_inline t ~work ~k
  end
  else begin
    (* [t.lanes.(lane)] can raise on an out-of-range lane: the whole
       critical section runs under [with_mu] so the mutex is released on
       that path too (a raw lock/unlock pair here would deadlock every
       subsequent submitter after one bad index). [reject] itself raises
       outside the lock. *)
    let accepted =
      with_mu t (fun () ->
          if t.closing then false
          else begin
            let ln = t.lanes.(lane) in
            let j = { j_lane = lane; j_seq = ln.l_next_seq; j_work = work; j_k = k } in
            ln.l_next_seq <- ln.l_next_seq + 1;
            Queue.add j t.queue;
            t.inflight <- t.inflight + 1;
            Condition.signal t.cond;
            true
          end)
    in
    if not accepted then reject ()
  end

let shutdown t =
  with_mu t (fun () ->
      t.closing <- true;
      Condition.broadcast t.cond);
  Array.iter Domain.join t.domains;
  t.domains <- [||]
  (* Workers drain the queue before exiting and each completion delivers
     its lane's contiguous prefix, so after the joins nothing is queued,
     in flight, or parked: [inflight = 0] and every sink has run. *)

let closed t = with_mu t (fun () -> t.closing)
let workers t = Array.length t.domains
let executed t = with_mu t (fun () -> t.executed)
let work_exceptions t = with_mu t (fun () -> t.work_exns)
let sink_exceptions t = with_mu t (fun () -> t.sink_exns)
let inflight t = with_mu t (fun () -> t.inflight)
