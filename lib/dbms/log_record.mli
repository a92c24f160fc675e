(** Transaction-log records and their binary encoding.

    Wire format of one record:
    {v
      magic   u16   0xA55A
      kind    u8
      len     u32   body length in bytes
      body    len bytes
      crc     u32   CRC-32 of kind, len and body
    v}

    Decoding is defensive: a record whose magic, kind, length or CRC does
    not check out is treated as end-of-log. The CRC covers the kind and
    length fields as well as the body, so no single corrupted byte
    (outside the magic, whose corruption is detected directly) can turn
    one valid record into a different valid record — a flipped kind byte
    must not reinterpret a [Begin] as a [Commit]. Together with the fact
    that devices tear writes only at sector granularity, this ensures a
    torn tail is cleanly cut off rather than misparsed — which is exactly
    the property recovery relies on. *)

type t =
  | Begin of { txid : int }
  | Update of { txid : int; key : int; before : string; after : string }
  | Commit of { txid : int }
  | Abort of { txid : int }
  | Checkpoint of { redo_lsn : Lsn.t }
  | Noop of { filler : int }  (** padding; [filler] body bytes of zeros *)
  | Commit_multi of { txid : int; deps : int array }
      (** multi-stream commit: the transaction is committed iff, for
          every stream [s], [deps.(s)] is within stream [s]'s durable
          prefix. The vector folds in the WAL's cross-stream watermark,
          so validity of a later commit implies validity of every
          earlier one. Fixed-width in the stream count, so the record's
          end LSN (its own home-stream dependency) is computable before
          appending. *)
  | Abort_multi of { txid : int; deps : int array }
      (** multi-stream abort: durable-and-valid (all compensating
          updates durable) means the transaction rolled back before the
          crash and recovery must not undo it again; an invalid one
          leaves the transaction a loser, undone from its images. *)

val pp : Format.formatter -> t -> unit

val encoded_size : t -> int
(** Total on-stream size, header included. *)

val encode : t -> string

val encode_into : t -> Buffer.t -> unit
(** Appends the encoding; equivalent to
    [Buffer.add_string buf (encode t)] without the intermediate copy. *)

val decode : string -> pos:int -> (t * int) option
(** [decode s ~pos] parses one record starting at [pos]; returns the
    record and its total encoded size, or [None] if the bytes at [pos]
    are not a valid record (truncated, torn, or garbage). *)

val scan : base:int -> pos:int -> (int -> string) -> (t * Lsn.t) list
(** [scan ~base ~pos read] is the maximal valid record sequence from
    stream offset [pos], each record paired with its end offset. [read n]
    returns the next stream bytes in order, from offset [base <= pos] on:
    at least [n] unless fewer remain, [""] once none do. A record is
    decided by its own bytes alone: a bad magic or an out-of-range
    length as soon as its 7-byte prefix is present, otherwise once all
    [header_size + blen] bytes are. [read] is called only while the
    record at the cursor is undecided, so the stream is read at most
    one request past the decoded prefix. *)

val decode_stream : string -> (t * Lsn.t) list
(** Parse records from offset 0 until the first invalid record; each
    record is paired with its end LSN (the stream offset just past it). *)

val max_body : int
(** Upper bound on accepted body length; larger claims are rejected as
    corruption. *)
