(** The durability guarantee, stated checkably.

    A configuration is durable when every transaction whose commit was
    acknowledged to a client is reflected in the state recovered from
    post-crash media. The harness records the acknowledged set and the
    expected final store on the client side; this module compares them
    with what {!Dbms.Recovery} reconstructed. *)

type report = {
  committed : int;  (** transactions acknowledged to clients *)
  recovered : int;  (** of those, present in the recovered state *)
  lost : int list;  (** acknowledged but missing — must be empty when the
                        durability guarantee holds *)
  extra : int list;
      (** recovered but never acknowledged (commit record reached media,
          ack did not reach the client) — always permitted *)
}

val compare_txids : committed:int list -> recovered:int list -> report
(** Set comparison of acknowledged against recovered transaction ids;
    neither list need be sorted. *)

val compare_sorted : committed:int array -> n:int -> recovered:int list -> report
(** [compare_txids] for an acknowledged set kept as the first [n]
    elements of a strictly ascending array and a recovered list already
    sorted ascending and duplicate-free ({!Dbms.Recovery} reports it
    so): a single merge walk instead of two set constructions. *)

val holds : report -> bool
(** No acknowledged transaction was lost. *)

type store_diff = { key : int; expected : string option; actual : string option }

val diff_stores :
  expected:(int, string) Hashtbl.t -> actual:(int, string) Hashtbl.t -> store_diff list
(** Keys whose recovered value differs from the expected value; empty
    means state-exact recovery. *)

val diff_stores_skipping :
  skip:(int -> bool) ->
  expected:(int, string) Hashtbl.t ->
  actual:(int, string) Hashtbl.t ->
  store_diff list
(** {!diff_stores} restricted to the keys [skip] rejects, as if both
    tables were filtered first, without copying either. When every kept
    expected key matches and [actual] holds no other keys, [actual] is
    never iterated. Both tables must hold one binding per key (built
    with [Hashtbl.replace]), as the audit's model and recovered store
    do. *)

val logger_conservation : Trusted_logger.t -> bool
(** After {!Trusted_logger.quiesce}: no acknowledged data remains in the
    buffer (everything reached the device, modulo coalescing of
    overlapping sector rewrites). *)

val pp_report : Format.formatter -> report -> unit
(** One-line summary, e.g. ["committed=12 recovered=12 lost=0 extra=1"]. *)
