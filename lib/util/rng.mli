(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the planner (synthetic circuit
    generation, simulated annealing, FM tie-breaking, router ordering)
    draws from an explicit [Rng.t] so that runs are reproducible from a
    single seed.  The generator is splitmix64: tiny state, good
    statistical quality, and trivially splittable for independent
    sub-streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator from an integer seed.  Equal seeds
    yield equal streams. *)

val split : t -> t
(** [split rng] advances [rng] and returns a new generator whose stream
    is statistically independent of the remainder of [rng]'s stream. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)].  @raise Invalid_argument
    if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in rng lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float rng bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  @raise Invalid_argument on
    an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller normal deviate. *)
