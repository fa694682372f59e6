(** SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104), bound to one C
    kernel ([sha256_stubs.c]).

    The sealed build environment has no crypto libraries, so the repository
    carries its own implementation. It is used for content digests (node ids,
    batch digests) and as the PRF behind the simulated signature scheme.
    The C kernel has two compression functions: a portable
    one, and on x86-64 one using the SHA extensions. The accelerated one is
    chosen once, at module initialisation (before any domain starts), when
    CPUID reports the extensions and a known-answer self-test passes.

    Invariants:
    - matches FIPS 180-4 (checked against standard vectors in tests);
    - identical bytes on every kernel: the kernel choice changes speed only,
      never a digest, a signature or anything derived from one;
    - pure and reentrant: the only global state is the kernel choice, which
      is written once at initialisation and only read afterwards;
    - an [hmac_key] is never mutated after [hmac_key] returns. *)

type ctx

val init : unit -> ctx
val feed_string : ctx -> string -> unit

val finalize : ctx -> string
(** 32-byte raw digest. The context must not be reused afterwards. *)

val digest_string : string -> string
(** One-shot 32-byte raw digest of the input, in one native call that
    allocates only the result. *)

val digest_sub : string -> pos:int -> len:int -> string
(** [digest_sub s ~pos ~len] is [digest_string (String.sub s pos len)],
    without the copy.
    @raise Invalid_argument if the range is not inside [s]. *)

type hmac_key
(** A precomputed HMAC-SHA256 key schedule: the SHA-256 states after the
    ipad and the opad key blocks. Immutable once built. *)

val hmac_key : string -> hmac_key
(** Key schedule for a key of any length (keys over 64 bytes are hashed
    first, per RFC 2104). Two compressions, plus one per 64 key bytes for a
    long key. *)

val hmac_with : hmac_key -> string -> string
(** HMAC-SHA256 under a precomputed key, in one native call: resumes from
    copies of the two midstates, so a message under 56 bytes costs two
    compressions and allocates only the 32-byte result. Never writes to the
    key, so one key may be shared across domains. *)

val hmac : key:string -> string -> string
(** HMAC-SHA256; [hmac ~key m = hmac_with (hmac_key key) m]. *)

val to_hex : string -> string
(** Lowercase hex of a raw digest. *)

val kernel : unit -> string
(** The compression function in use: ["sha-ni"] or ["portable"]. *)
