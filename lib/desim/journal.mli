(** Durable-write journal for the crash-surface sweep.

    One reference run of a scenario, executed with recording enabled,
    appends every durable-media mutation (device transfer start and
    completion), every trusted-buffer push/pop, every virtio write
    submission and every commit acknowledgement — each stamped with the
    executed-event index and clock at the instant it happened. The
    crash-surface sweep then reconstructs the post-crash state at any
    event boundary by replaying these deltas incrementally, instead of
    re-executing the whole simulation per crash point.

    Appends store into flat preallocated parallel arrays (payload bytes
    in one shared arena), so the hot path allocates nothing on the minor
    heap; arrays grow by doubling. *)

type t

type kind = Write_start | Write_complete | Push | Pop | Submit | Ack

type endpoint = {
  ep_model : string;
  ep_is_port : bool;
  ep_sector_size : int;
  ep_capacity_sectors : int;
  ep_rng : Rng.t option;
      (** devices only: a pristine copy of the tear rng taken at
          creation, from which reconstruction replays torn-write draws *)
}

val create : unit -> t

(** {2 Ambient recording}

    Devices and ports consult {!recording} at creation time and keep the
    journal handle (plus their registered endpoint id) if one is active.
    Recording is enabled only around the serial enumeration run of a
    journal sweep; the slot is process-global, so
    {!Harness.Parallel.map} refuses to fan out while it is set. *)

val recording : unit -> t option
(** The ambient journal, if one is installed. *)

val start_recording : t -> unit
val stop_recording : unit -> unit

(** {2 Endpoint registry} *)

val register_device :
  t -> model:string -> sector_size:int -> capacity_sectors:int -> rng:Rng.t -> int
(** Register a physical device; returns its endpoint id for the append
    calls below. *)

val register_port : t -> model:string -> int
(** Register a software port (a virtio frontend); returns its endpoint
    id. *)

val endpoint : t -> int -> endpoint

(** {2 Appends} — stamped with [Sim.events_executed] / [Sim.now]. *)

val write_start : t -> Sim.t -> device:int -> lba:int -> sectors:int -> unit
(** The device began transferring to media (a tear at power loss now
    persists a prefix). *)

val write_complete :
  t -> Sim.t -> device:int -> lba:int -> sectors:int -> data:string -> unit
(** The device persisted [data] at [lba]. *)

val push : t -> Sim.t -> device:int -> lba:int -> data:string -> unit
(** The trusted logger accepted [data] into its buffer. *)

val pop : t -> Sim.t -> device:int -> lba:int -> bytes:int -> unit
(** The drainer popped a coalesced batch and is writing it out. *)

val submit : t -> Sim.t -> port:int -> lba:int -> sectors:int -> unit
(** A virtio write request crossed into the backend queue (the instant
    from which it survives a guest crash). *)

val ack : t -> Sim.t -> txid:int -> writes:string -> unit
(** A commit with non-empty writes was acknowledged to a client;
    [writes] is the harness's encoding of its key/value updates. *)

(** {2 Read side} *)

val length : t -> int
(** Number of journalled records. *)

val kind : t -> int -> kind

val index : t -> int -> int
(** The [Sim.events_executed] stamp of record [i]. *)

val time_ns : t -> int -> int
(** The clock stamp of record [i], in nanoseconds. *)

val a : t -> int -> int
(** Endpoint id, or txid for [Ack]. *)

val b : t -> int -> int
(** LBA. *)

val c : t -> int -> int
(** Sectors or bytes, per the record kind. *)

val payload : t -> int -> string
(** The stored payload; raises [Invalid_argument] for kinds without
    one. *)
