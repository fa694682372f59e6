(** Open-loop Poisson clients.

    Each replica gets a local client population generating an aggregate
    Poisson stream of [rate_tps] transactions per second, submitted directly
    to the local replica's mempool — the paper's client model ("clients
    connect to a single (local) replica and issue a continuous stream of
    dummy transactions").

    A client is a schedule, not a timer: it keeps the due time of its next
    arrival, and its mempool materializes every arrival due by now when it
    is next read ({!Mempool}), stamped with its due time. Clients whose
    pools share a {!Mempool.group} share its id counter and are caught up
    together, in due-time order.

    Invariants:
    - the arrival process is a pure function of (seed, origin, rate, start
      time): identical seeds give identical due times, sizes and — within
      a group — ids, whenever the pools happen to be read;
    - no transaction is due after {!stop}, and every one due before it is
      delivered; no executor event or timer is involved at any point;
    - transaction ids never repeat within a group. *)

type t

val start :
  mempool:Mempool.t ->
  origin:int ->
  rate_tps:float ->
  ?tx_size:int ->
  ?seed:int ->
  unit ->
  t
(** Begin arriving now, at the clock of [mempool]'s group: the first
    arrival is due one exponential gap later. Ids come from the group's
    counter.
    @raise Invalid_argument when [rate_tps] is not finite and positive, or
    [mempool] was created without a group. *)

val stop : t -> unit
(** Materialize every arrival due by now, then stop. *)

val generated : t -> int
(** Arrivals so far, counted up to now. *)
