(** In-memory key/value store for consensus data, keyed by digest.

    Functional correctness only — durability latency is [Wal]'s job. Backs
    the fetcher (serving missing nodes to lagging peers) and recovery
    tests.

    Invariants:
    - [get] returns the most recent [put] for the digest (last-writer-wins);
    - [iter] order is unspecified (hash order) — it must not feed trace
      export or message emission, which the layering linter enforces by
      keeping emission modules off raw table iteration. *)

type 'a t

val create : unit -> 'a t
val put : 'a t -> Shoalpp_crypto.Digest32.t -> 'a -> unit
val get : 'a t -> Shoalpp_crypto.Digest32.t -> 'a option
val mem : 'a t -> Shoalpp_crypto.Digest32.t -> bool
val remove : 'a t -> Shoalpp_crypto.Digest32.t -> unit
val size : 'a t -> int
val iter : (Shoalpp_crypto.Digest32.t -> 'a -> unit) -> 'a t -> unit
