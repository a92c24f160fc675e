(** CRC-32 (IEEE 802.3 polynomial, the zlib/ethernet variant).

    Used to detect torn log records and corrupt page images after a
    crash. *)

val digest : string -> pos:int -> len:int -> int32
val digest_string : string -> int32
val digest_bytes : bytes -> pos:int -> len:int -> int32

(** {2 Incremental digesting}

    The same CRC computed piecewise, for producers that stream a record
    into a buffer field by field ({!Log_record.encode_into}): the state
    is an untagged native int, every operation is allocation-free, and
    [finish (update ... init)] is bit-identical to the one-shot
    {!digest} of the concatenated bytes. *)

type state = int
(** Raw (pre-inversion) CRC register. *)

val init : state

val update_byte : state -> int -> state
(** Fold one byte (low 8 bits of the argument) into the digest. *)

val update_int32_le : state -> int -> state
(** Fold the low 32 bits of the argument as four little-endian bytes —
    the bytes [Buffer.add_int32_le b (Int32.of_int v)] writes. *)

val update_int64_le : state -> int -> state
(** Fold the argument as eight little-endian bytes, sign-extended to 64
    bits — the bytes [Buffer.add_int64_le b (Int64.of_int v)] writes. *)

val update_string : state -> string -> pos:int -> len:int -> state

val finish : state -> int
(** The digest as a non-negative int holding the 32-bit value —
    the same bits {!digest} boxes into an [int32], minus the box. *)
