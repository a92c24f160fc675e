(** Deterministic pseudo-random number generation.

    The core generator is xoshiro256++ seeded via splitmix64, which gives
    high-quality streams from any 64-bit seed and supports cheap stream
    splitting. All simulation randomness must flow from one of these so that
    an experiment is reproducible bit-for-bit from its seed.

    {b Stream contract.} The state layout may change; the output sequence
    may not. For a given seed, every function here returns the same
    values, and consumes the same number of raw 64-bit draws, as the
    first implementation did — every simulated result, crash-sweep
    verdict and digest in the repository rests on it. Known-answer tests
    pin the first outputs of {!bits64}, {!int}, {!float}, {!bool},
    {!split} and {!copy} for several seeds.

    {b Allocation.} The state is unboxed, so drawing allocates nothing:
    {!int}, {!int_in}, {!bool}, {!pick}, {!span}, {!shuffle} and
    {!Zipf.sample} allocate no heap words. Functions that return an
    [int64] or a [float] box their result when a call from another
    module is not inlined, as OCaml's calling convention requires;
    {!float} allocates at most that box. *)

type t

val create : int64 -> t
(** [create seed] builds a generator; any seed (including 0) is fine. *)

val split : t -> t
(** [split t] derives an independent stream and advances [t]. *)

val copy : t -> t

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]; requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive; requires
    [lo <= hi]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian sample (Box–Muller). *)

val span : t -> Time.span -> Time.span
(** [span t d] is a uniform duration in [\[0, d)]; requires [d > 0]. *)

val exponential_span : t -> mean:Time.span -> Time.span

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

module Zipf : sig
  (** Zipf-distributed integers over [\[0, n)], used for skewed key
      popularity in workloads. Sampling is by inverse transform over a
      precomputed CDF: O(n) setup, O(log n) per sample. *)

  type dist

  val create : n:int -> theta:float -> dist
  (** Requires [n > 0] and [theta >= 0.]; [theta = 0.] is uniform. *)

  val sample : t -> dist -> int
end
