(** ARIES-style crash recovery.

    Given the *durable* (post-crash media) contents of the log and data
    devices, recovery rebuilds the database state that the committed
    transactions define:

    + {b scan} — read the durable log region and decode records until the
      first invalid one (the CRC cuts off a torn tail);
    + {b analysis} — classify transactions into committed / aborted /
      losers (no outcome record in the durable log);
    + {b redo} — repeating history from the master block's redo point:
      re-apply every update whose LSN is beyond the containing page's
      [page_lsn];
    + {b undo} — roll back the losers' updates in reverse LSN order using
      the logged before-images (strict 2PL guarantees a loser's update is
      the last durable-logged write of its key, so reverse application is
      exact).

    The result also reports what was scanned and applied, which the
    durability audit and the recovery experiments inspect. *)

type result = {
  store : (int, string) Hashtbl.t;  (** recovered key → value *)
  records_rev : (Log_record.t * Lsn.t) list;
      (** the decoded durable log, newest record first (a multi-stream
          log: the streams' records in stream order, reversed), for
          audits that need per-transaction write sets and for restart's
          compensation pass. Newest first lets the crash sweep share
          every point's record prefix instead of copying it. *)
  parities : (int, int) Hashtbl.t;
      (** for each page with an intact on-device image: which of its two
          slots holds the newest one (the restart path's flushes must
          avoid overwriting it) *)
  committed : int list;  (** txids with a durable commit record, ascending *)
  aborted : int list;
  losers : int list;
  durable_records : int;  (** records decoded before the log ended *)
  durable_end : Lsn.t;  (** LSN of the durable log prefix *)
  redo_start : Lsn.t;
  redo_applied : int;
  undo_applied : int;
  pages_loaded : int;
}

type replay_stats = {
  s_durable_records : int;
  s_durable_bytes : int;  (** LSN of the durable log prefix *)
  s_committed : int;
  s_aborted : int;
  s_losers : int;
  s_redo_applied : int;
  s_undo_applied : int;
  s_pages_loaded : int;
  s_store_keys : int;
}
(** A flat scalar summary of one recovery pass — what the crash-surface
    sweep records per crash point, and what two runs over the same media
    must reproduce identically (recovery is a pure function of durable
    media). *)

val stats : result -> replay_stats

val pp_stats : Format.formatter -> replay_stats -> unit

val run :
  log_device:Storage.Block.t ->
  data_device:Storage.Block.t ->
  wal_config:Wal.config ->
  pool_config:Buffer_pool.config ->
  result
(** Pure inspection of durable media: callable from any context and at
    any simulated time (normally after a crash). *)

val read_durable_log : log_device:Storage.Block.t -> wal_config:Wal.config -> string
(** The raw durable log stream bytes; exposed for tests. *)

val scan_chunk_bytes : int
(** The scan's read granularity: it requests this many bytes, or one
    whole pending record when that is larger. *)

val scan_records_region :
  log_device:Storage.Block.t -> start:int -> limit_lba:int -> (Log_record.t * Lsn.t) list
(** The maximal decodable prefix of the sectors
    [\[start, min (durable_extent log_device) limit_lba)] — exactly
    [Log_record.decode_stream] of those bytes read whole, with record
    LSNs as region offsets — found by an exact-read scan: the region is
    read in order and the scan stops at the first record whose framing
    is definitively invalid ({!Log_record.scan}). It reads at most the
    valid log plus one {!scan_chunk_bytes} request or one maximal
    record, however far the device's written extent lies past the log
    (the single-disk layout puts data pages on the same device). *)

val scan_records :
  log_device:Storage.Block.t -> wal_config:Wal.config -> (Log_record.t * Lsn.t) list
(** {!scan_records_region} of the single-stream log, from
    [wal_config.log_start_lba] with no limit. This is what {!run}
    uses. *)

(** Incremental recovery over a monotonically growing base media image,
    for sweeps that run recovery at many nearby crash points. A
    {!Incremental.shared} value, built once per reference run from the
    "future stream" (every byte the run ever pushes at its log, latest
    version winning), holds the decoded record array and the
    transaction/page position indexes every point's scan and analysis
    reduce to. A cursor-local {!Incremental.t} adds byte watermarks
    that certify each point's durable log is a verified prefix of the
    stream, plus redo state repeated once over the evolving base data
    volume and patched per point at page granularity. Each {!run}
    produces a {!result} identical (counters included) to what the
    sequential {!run} returns on the same media — the crash sweep's
    differential oracle compares the two bit-for-bit. See the
    implementation comment for the exact sharing discipline. *)
module Incremental : sig
  type shared
  (** Immutable per-reference-run state; safe to share across domains. *)

  val prepare :
    wal_config:Wal.config ->
    pool_config:Buffer_pool.config ->
    log_sector_size:int ->
    future:string ->
    shared
  (** [future] is the reference run's log stream image: every push's
      payload blitted at its stream offset (offset 0 =
      [log_start_lba]), later pushes overwriting earlier ones. *)

  type t

  val create : shared -> data_base:Storage.Block.t -> t
  (** [data_base] must read through to the evolving base data volume:
      the cache re-probes invalidated pages after every
      {!note_data_write}. *)

  val note_log_write : t -> lba:int -> data:string -> unit
  (** A write became durable on the base log device: verify it against
      the future stream and advance (or, on a stale tail sector,
      retract) the base watermark. *)

  val note_push : t -> lba:int -> data:string -> unit
  (** The logger buffered a log write: verify it against the future
      stream and advance the push watermark, below which per-point
      replayed drain writes are trusted without comparison. *)

  val note_data_write : t -> lba:int -> sectors:int -> unit
  (** A write became durable at [lba] (data-volume address space) on
      the base data volume: invalidate the cached pages whose slots it
      intersects. *)

  val run :
    t ->
    log_overlay:(int * string * int * bool) list ->
    data_overlay:(int * int) list ->
    log_device:Storage.Block.t ->
    data_device:Storage.Block.t ->
    result
  (** Recovery over the point's media: the base image plus the point's
      overlays. [log_overlay] lists the point's log-device writes as
      [(lba, data, persisted_sectors, push_derived)] in application
      order — exactly what [log_device] layers over the base;
      [push_derived] marks writes whose bytes replay buffered pushes
      (trusted below the push watermark and compared past it; recorded
      device batches with possibly-stale tail sectors must pass [false]
      and are compared in full — once, while consecutive points pass
      the same string at the same offset). [data_overlay] lists the point's data-volume writes as
      [(lba, sectors)] ranges in the data volume's address space.
      [log_device] and [data_device] are the point's frozen devices
      (master-block reads, page loads, extents). *)

  val rebuilds : t -> int
  (** Times the shared redo state was rebuilt from scratch after a
      master-block move (diagnostic; never on the sweep's workloads). *)

  val fork : t -> data_base:Storage.Block.t -> t
  (** An independent deep copy of the cursor: watermarks, redo state and
      every cached page are duplicated, so {!run} and note calls on
      either side never disturb the other. [data_base] must be the
      fork's own frozen device over a media snapshot taken at the same
      boundary (see {!Storage.Block.Media.fork}). The immutable
      {!shared} stays shared. The fork-based crash sweep hands one fork
      per candidate chunk to its worker domains. *)
end
