val now_ns : unit -> int
(** Monotonic wall-clock nanoseconds. *)
