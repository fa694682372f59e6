(** Simulated replica signatures.

    The paper signs node proposals and votes with BLS over BLS12-381. The
    sealed environment has no pairing library, so signatures here are
    HMAC-SHA256 under a per-replica secret derived from a cluster seed.
    Within the simulation this gives the property consensus needs —
    a correct replica's signature cannot be fabricated by protocol code that
    does not call [sign] — while remaining interface-compatible with a real
    scheme. DESIGN.md §2 records the substitution.

    A keypair holds the secret's precomputed HMAC key schedule
    ({!Sha256.hmac_key}), not the secret itself, so signing or checking one
    short message costs two SHA-256 compressions.

    Invariants:
    - deterministic: signing uses no randomness, so equal (key, message)
      gives byte-equal signatures;
    - [verify] accepts exactly the signatures produced by [sign] under the
      matching keypair — protocol code without the secret cannot fabricate
      a correct replica's signature;
    - keypairs are a pure function of (cluster_seed, replica index);
    - a [registry] is immutable after {!registry} returns, so it may be read
      from any number of domains at once. *)

type keypair
type public = int
(** Public keys are replica indices; the registry maps them to secrets. *)

type signature

type registry
(** One keypair per replica [0..n-1] of a committee: what every verifier
    knows from the shared genesis configuration. *)

val keygen : cluster_seed:int -> replica:int -> keypair
(** Deterministic keypair for [replica] in a cluster. *)

val registry : cluster_seed:int -> n:int -> registry
(** The keypairs of replicas [0..n-1], each equal to [keygen]'s. *)

val size : registry -> int
(** Number of replicas with a key. *)

val keypair_of : registry -> public -> keypair
(** @raise Invalid_argument if the replica has no key in the registry. *)

val public : keypair -> public

val sign : keypair -> string -> signature
(** Sign a message (its raw bytes or digest). *)

val verify : registry -> public -> string -> signature -> bool
(** Check a signature against the registry. [false], never an exception,
    for a replica with no key. *)

val signature_size : int
(** Modeled wire size in bytes (BLS12-381 G1 point: 48 bytes). *)

val raw : signature -> string

val of_raw : string -> signature
(** Reconstruct a signature from its 32 wire bytes (decoder use).
    @raise Invalid_argument on wrong length. *)

val pp : Format.formatter -> signature -> unit
