(** Generated row contents.

    Values carry a readable prefix (useful when eyeballing recovered
    state in tests) padded with pseudo-random printable bytes to the
    requested length. Each padding byte is one {!Desim.Rng.int} draw,
    so a value of [len] bytes whose tag fills [k] of them advances the
    stream by exactly [len - k] draws. Apart from the returned string,
    [make] allocates nothing. *)

val make : Desim.Rng.t -> tag:string -> len:int -> string
(** Requires [len >= 1]; the tag is truncated if longer than [len]. *)
