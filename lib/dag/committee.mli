(** Static committee configuration: n = 3f+1 replicas, standard BFT
    assumptions (§2 of the paper).

    Invariants:
    - [n = 3*f + 1] with [f = (n-1)/3]; the type is private, so every value
      in circulation went through the validating constructor;
    - keypairs and the genesis digest derive solely from [cluster_seed] —
      two committees with equal seed and size are interchangeable;
    - [keys] holds exactly replicas [0..n-1] and is never mutated. *)

type t = private {
  n : int;
  f : int;  (** max Byzantine replicas tolerated: (n-1)/3 *)
  cluster_seed : int;  (** genesis randomness; derives all keypairs *)
  genesis : Shoalpp_crypto.Digest32.t;  (** virtual parent digest of round 0 *)
  keys : Shoalpp_crypto.Signer.registry;
      (** every replica's key schedule, derived once here; read-only, so
          lane and verify-pool domains share it *)
}

val make : n:int -> ?cluster_seed:int -> unit -> t
(** @raise Invalid_argument if [n < 4]. *)

val quorum : t -> int
(** n - f certificates / votes — availability quorum. *)

val weak_quorum : t -> int
(** f + 1 — at least one correct replica. *)

val fast_quorum : t -> int
(** 2f + 1 proposals — the Fast Direct Commit threshold (§5.1). *)

val keypair : t -> int -> Shoalpp_crypto.Signer.keypair
(** Replica's keypair from [keys], byte-equal in signing to
    [Signer.keygen ~cluster_seed ~replica].
    @raise Invalid_argument unless [valid_replica t replica]. *)

val valid_replica : t -> int -> bool
val pp : Format.formatter -> t -> unit
