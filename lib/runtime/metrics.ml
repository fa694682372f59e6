(* Read-only names kept for callers written before the ledger existed. *)
type t = Ledger.t

let latency = Ledger.latency
let throughput_series = Ledger.throughput_series
