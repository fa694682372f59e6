(* The repo's crypto is a model (seeded HMAC-SHA-256 standing in for
   ed25519 and BLS), so its CPU cost is microseconds where production
   verification costs tens to hundreds — which erases the effect the
   verify pool exists for. [pay] charges that missing cost explicitly, as
   a service time, the same way the rest of the harness models I/O costs
   as parameters (wal_sync_ms, fetch_delay_ms): the single
   domain node pays it serially on its event loop; pool workers pay it
   concurrently, overlapping up to the pool width. *)

let pay ~us = if us > 0.0 then Unix.sleepf (us *. 1e-6)
