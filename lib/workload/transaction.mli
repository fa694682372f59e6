(** Client transactions.

    The paper's clients submit 310-byte dummy transactions; we track just the
    metadata the harness needs (size for bandwidth accounting, arrival time
    for end-to-end latency).

    Invariants:
    - ids are unique within a run (monotone allocation), so ordering audits
      can detect duplicates by id alone;
    - [size] is the number the bandwidth model charges — changing it
      changes simulated network cost and nothing else. *)

type t = {
  id : int;  (** globally unique *)
  size : int;  (** payload bytes on the wire *)
  submitted_at : float;
      (** ms when it reached its local replica: a client's arrival is
          stamped with its due time, however late the mempool noticed it *)
  origin : int;  (** replica it was submitted to *)
}

val default_size : int
(** 310 bytes, as in the paper's evaluation. *)

val make : id:int -> ?size:int -> submitted_at:float -> origin:int -> unit -> t

val header_size : int
(** The modeled per-transaction header: 8 bytes. *)

val wire_size : t -> int
(** Bytes this transaction contributes to a proposal: payload +
    {!header_size}. *)

val pp : Format.formatter -> t -> unit
