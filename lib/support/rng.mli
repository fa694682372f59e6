(** Deterministic pseudo-random number generation.

    Every source of randomness in the repository (network jitter, client
    arrival processes, drop decisions, shuffles) flows through a [Rng.t] so
    that a whole experiment is a pure function of its seed. The generator is
    xoshiro256++ seeded via SplitMix64.

    Invariants:
    - equal seeds give identical streams on every platform and OCaml
      version — the generator never reads OS randomness or the clock
      (stdlib [Random] is banned outside [lib/backend] by the linter);
    - derived/split generators are seeded from the parent stream, so whole
      experiments remain pure functions of the root seed. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds yield
    identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each replica / link / client its own stream so that adding
    consumers does not perturb existing ones. *)

val copy : t -> t
(** Duplicate the current state (the copies then evolve independently). *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples Exp with the given mean (inter-arrival times
    of a Poisson process). *)

val normal : t -> mu:float -> sigma:float -> float
(** Box–Muller Gaussian sample. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** exp of a Gaussian; used for latency jitter tails. *)

val poisson : t -> float -> int
(** [poisson t lambda] samples a Poisson-distributed count (small lambda). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] picks [k] distinct ints from
    [\[0, n)] (k <= n), in random order. *)
