(** Multicore fan-out for independent scenario evaluations.

    Every reconstructed experiment is a sweep of deterministic
    simulations that share nothing — each task builds its own
    {!Desim.Sim.t} and RNG from its config seed — so they parallelise
    perfectly across OCaml 5 domains. Results come back in submission
    order and are bit-identical to a serial run; only wall-clock time
    changes. *)

val env_var : string
(** ["RAPILOG_JOBS"] — overrides the worker count when set to a
    positive integer. *)

val default_jobs : unit -> int
(** The [RAPILOG_JOBS] override when set and valid, otherwise
    [Domain.recommended_domain_count ()]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] evaluates [f] over [items] on [jobs] domains
    (default {!default_jobs}) and returns the results in input order.
    [jobs = 1] (or a singleton input) degenerates to [List.map] on the
    calling domain — no domains are spawned. If any task raises, the
    remaining tasks still run and the first failure (in input order) is
    re-raised with its original backtrace.

    Raises [Invalid_argument] before spawning anything when it would fan
    out (more than one job and more than one item) while a
    {!Desim.Metrics} registry or a {!Desim.Journal} is recording: those
    ambient slots are process-global, so worker domains would share the
    caller's registry or journal. The serial path runs regardless. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run thunks] is [map (fun f -> f ()) thunks]. *)
