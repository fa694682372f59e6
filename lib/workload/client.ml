module Rng = Shoalpp_support.Rng

type t = Mempool.source

(* Open-loop arrivals: each due time is one exponential gap after the
   PREVIOUS due time, never after the moment the arrival was noticed, so a
   busy reader delays nothing but its own pull and never deflates the
   offered rate (coordinated omission). The pool materializes the
   arrivals when it is next touched ({!Mempool}); nothing here arms a
   timer. *)
let start ~mempool ~origin ~rate_tps ?(tx_size = Transaction.default_size) ?(seed = 7) () =
  if not (Float.is_finite rate_tps && rate_tps > 0.0) then
    invalid_arg "Client.start: rate must be finite and positive";
  Mempool.attach mempool ~origin ~mean_gap_ms:(1000.0 /. rate_tps) ~tx_size
    ~rng:(Rng.create (seed + (origin * 7919)))

let stop = Mempool.detach
let generated = Mempool.generated
