(** The observability registry: named counters, gauges and log-linear
    latency histograms, plus span helpers for the commit-path
    instrumentation.

    Every instrumented component (event queue, trusted logger, virtio
    frontend, WAL, engine, devices) consults {!recording} at creation
    time; when a registry is installed it resolves its metric handles
    once and observes into them on the hot path. Observing allocates
    nothing on the minor heap — counts live in flat int arrays and the
    scalar accumulators in unboxed float arrays — and instrumentation
    never reads the rng or schedules events, so a run's simulated
    history is bit-identical with metrics on or off. With no registry
    installed the instrumented paths cost a single branch.

    All histogram values are in {b microseconds}: the repository's
    latency unit. See [docs/OBSERVABILITY.md] for the stage names the
    commit path emits and the JSON schema reports use. *)

(** {1 Log-linear bucket layout}

    HDR-style bucketing over integer nanoseconds: exact 1 ns buckets
    below 16 ns, then each octave [[2^e, 2^(e+1))] split into 16 linear
    sub-buckets — a 6.25% relative bucket width over the whole range
    (1 ns to ~2^62 ns) in {!num_buckets} flat slots. The layout helpers
    are exposed for the property tests (bucket-boundary monotonicity,
    quantile-vs-oracle). *)

val num_buckets : int

val bucket_index_us : float -> int
(** The bucket a microsecond value lands in; non-positive values land in
    bucket 0. *)

val bucket_lower_us : int -> float
(** Inclusive lower bound of a bucket, in microseconds. Raises
    [Invalid_argument] outside [[0, num_buckets)]. *)

val bucket_upper_us : int -> float
(** Exclusive upper bound of a bucket, in microseconds. *)

module Histogram : sig
  (** A latency histogram over the log-linear layout above. *)

  type t

  val create : unit -> t
  (** An empty histogram (all {!num_buckets} slots preallocated). *)

  val observe : t -> float -> unit
  (** Record a value in microseconds; allocation-free. Non-positive
      values land in the lowest bucket. *)

  val observe_span : t -> Time.span -> unit
  (** Record a simulated duration. *)

  val count : t -> int

  val sum : t -> float
  (** Sum of observed values in microseconds; [0.] when empty. *)

  val mean : t -> float
  (** [nan] when empty, like {!min} and {!max}. *)

  val min : t -> float
  val max : t -> float

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [[0, 1]]: linear interpolation inside
      the bucket containing the rank, so the result is within one bucket
      width (≤ 6.25% relative) of the exact order statistic. [nan] when
      empty. *)

  val merge_into : into:t -> t -> unit
  (** [merge_into ~into src] adds [src]'s buckets and accumulators into
      [into]; equivalent (bucket-for-bucket) to observing the
      concatenation of both observation streams into one histogram. *)

  val nonempty_buckets : t -> (float * float * int) list
  (** Non-empty buckets in ascending order as
      [(lower_us, upper_us, count)]. *)
end

module Counter : sig
  (** A monotonically growing event count. *)

  type t

  val create : unit -> t
  val incr : t -> unit

  val add : t -> int -> unit
  (** Add an increment (e.g. a byte count). *)

  val get : t -> int
end

module Gauge : sig
  (** An instantaneous level with a high-water mark (e.g. trusted-buffer
      occupancy in bytes). *)

  type t

  val create : unit -> t

  val set : t -> float -> unit
  (** Set the current value; the high-water mark follows the maximum
      ever set. *)

  val add : t -> float -> unit
  (** Adjust the current value by a delta (through {!set}). *)

  val get : t -> float

  val high_water : t -> float
  (** The largest value ever set; 0. if never set. *)
end

(** {1 The registry} *)

type t
(** A registry: a name-keyed table of metrics. *)

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

val create : unit -> t
(** An empty registry. *)

val counter : t -> string -> Counter.t
(** Find-or-create by name. Raises [Invalid_argument] when the name is
    already registered as a different kind — as do {!gauge} and
    {!histogram}. *)

val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t

val names : t -> string list
(** All registered names, sorted — the stable iteration order reports
    use. *)

val find : t -> string -> metric option

val fold : t -> ('acc -> string -> metric -> 'acc) -> 'acc -> 'acc
(** Fold over the registry in {!names} order. *)

(** {1 Ambient enablement}

    The {!Journal} pattern: instrumented components consult
    {!recording} at creation time and keep resolved handles if a
    registry is active. The slot is process-global, so recording is
    only ever enabled around a single serial run: {!Harness.Parallel.map}
    refuses to fan out while it is set. *)

val recording : unit -> t option
(** The ambient registry, if one is installed. *)

val start_recording : t -> unit
val stop_recording : unit -> unit

val with_recording : t -> (unit -> 'a) -> 'a
(** [with_recording t f] installs [t], runs [f], and uninstalls the
    registry even if [f] raises. *)

(** {1 Spans}

    A span is just the start instant as an integer nanosecond stamp — no
    allocation, no context object — finished by observing the elapsed
    simulated time into a stage histogram. *)

module Span : sig
  val start : Sim.t -> int
  (** The current instant as a nanosecond stamp. *)

  val finish : Histogram.t -> Sim.t -> int -> unit
  (** [finish h sim started] observes [now - started] (µs) into [h]. *)
end
