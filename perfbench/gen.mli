(** The benchmark's mutator programs: seeded generators of the paper's
    leak shapes, written against the public [Vm] / [Mutator] API as
    [lib/workloads] is, but with every iteration-time call into a layer
    routed through {!Ledger}. Each generator returns an ordinary
    {!Lp_workloads.Workload.t}, so the same program runs standalone or
    as a fleet tenant.

    The seed picks the object sizes and access choices; the shapes
    (counts and size ranges) are constants of each generator, so every
    seed asks for the same amount of work on average. The heap a
    program is sized for is its [default_heap_bytes]. *)

val stream : seed:int -> tag:int -> Lp_workloads.Rand.t
(** An independent generator for [(seed, tag)] (splitmix-scrambled, so
    small and adjacent seeds give unrelated streams). *)

val leak : seed:int -> Lp_workloads.Workload.t
(** Leak: a live head roots an ever-growing chain of dead sessions with
    payloads, next to short-lived churn and a long-lived table, in a
    heap of twice the non-leaking live size (the paper's setup). *)

val pool : seed:int -> Lp_workloads.Workload.t
(** Pool: a bounded, non-leaking DaCapo/pseudojbb-shaped pool with
    skewed reads (7/8 to the hot eighth) and per-iteration allocations
    and writes, in a heap of four times the live pool: collections are
    rare and pruning never engages. *)

val reread : seed:int -> Lp_workloads.Workload.t
(** Reread: a cache that goes quiet, is mispruned, and is read again.
    Needs [resurrection] on: the walks after a misprediction read
    poisoned references, which the read barrier restores from swap
    images. *)
