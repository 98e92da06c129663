(** The event bus: a bounded, drop-oldest buffer of stamped events.

    A sink is what the runtime's instrumentation sites hold an
    [option] of. The zero-cost-when-disabled contract is structural:
    a site matches on the option and builds the event {e inside} the
    [Some] branch, so a disabled site costs one branch and allocates
    nothing. Emission stamps the event with the sink's logical clock
    (the VM's cycle counter) and a monotonically increasing sequence
    number; neither consults wall time, keeping traces deterministic. *)

type t

val create : ?capacity:int -> clock:(unit -> int) -> unit -> t
(** [capacity] defaults to 65,536 events. *)

val emit : t -> Event.t -> unit

val events : t -> Event.stamped list
(** Retained events, oldest first. *)

val iter : t -> (Event.stamped -> unit) -> unit

val length : t -> int

val capacity : t -> int

val dropped : t -> int
(** Events evicted because the ring was full. *)

val clear : t -> unit
