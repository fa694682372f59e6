(** Read-only aliases over {!Ledger}, kept so callers written against the
    earlier metrics interface still compile. It holds no state and records
    nothing: every value is read from the ledger, the one latency sink.

    Invariants:
    - [t] is {!Ledger.t}, and each function here is the ledger's function
      of the same name. *)

type t = Ledger.t

val latency : t -> Shoalpp_support.Stats.Summary.t
val throughput_series : t -> (float * float) list
