(** Sets of byte offsets kept as half-open segments [[a, b)]: sorted,
    disjoint, non-empty and non-touching (each segment ends strictly
    before the next begins), so touching pieces are always one segment.

    {!Recovery.Incremental.run} tracks with this which bytes of a crash
    point's log it has verified against the reference stream: the base
    image's trusted prefix, shadowed in application order by each
    overlay write's own trusted bytes. Merging on insert keeps the list
    at a segment or two however many contiguous writes a point replays,
    so each write costs O(1) instead of a rebuild of every segment
    before it. *)

type t = private (int * int) list

val of_prefix : int -> t
(** [of_prefix n] is the set [[0, n)] (empty when [n <= 0]). *)

val shadow : t -> start:int -> stop:int -> trusted:int -> t
(** [shadow t ~start ~stop ~trusted] removes [[start, stop)] from [t],
    then adds [[start, start + trusted)]: a write over those bytes of
    which the first [trusted] are known good. Requires
    [0 <= trusted <= stop - start]. *)

val prefix : t -> int
(** The length of the longest prefix [[0, n)] inside the set. *)
