(** Collector work queue.

    MMTk's parallel collectors draw work from a shared pool of local
    queues; our deterministic collector mirrors that structure with a
    single growable queue of object identifiers. Keeping the closure
    iterative (rather than recursive) also means arbitrarily deep data
    structures — exactly what leaking programs build — cannot overflow the
    OCaml stack.

    A queue is meant to be owned by an engine and reused across
    collections: {!clear} keeps the grown backing array, so once a queue
    has reached the heap's working size, {!push} and {!pop} allocate
    nothing. *)

type t

val create : unit -> t

val push : t -> int -> unit

val pop : t -> int
(** Removes and returns the most recently pushed id. LIFO discipline:
    depth-first traversal, like a marking stack. Allocates nothing.
    @raise Invalid_argument when the queue is empty; test {!is_empty}
    first. *)

val is_empty : t -> bool

val length : t -> int

val iter : t -> (int -> unit) -> unit
(** [iter t f] applies [f] to the ids held, oldest first, without
    removing them. *)

val clear : t -> unit
(** Empties the queue, keeping its capacity. *)
