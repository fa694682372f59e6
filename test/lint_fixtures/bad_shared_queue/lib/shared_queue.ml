(* Fixture: the lib/support specializations are shared mutable state when
   created at top level in a module reachable from two roles. Three shapes
   must be flagged [shared-mutable-state]; the guarded and per-call forms
   must not. *)

(* flagged: int-keyed table *)
let positions = Int_tbl.create 64

(* flagged: due-time queue, through the library path *)
let timers = Shoalpp_support.Heap.create ()

(* flagged: due-time queue, bare *)
let arrivals = Heap.create ()

let mu = Mutex.create ()

(* ok: declared guarded by [mu] above *)
let guarded = Heap.create () [@@shoalpp.guarded_by "mu"]

(* ok: allocation lives under the function — per-call state *)
let fresh () = Int_tbl.create 4

let use_everything () =
  ignore positions;
  ignore timers;
  ignore arrivals;
  ignore fresh
