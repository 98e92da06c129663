(* Monotonic nanoseconds (clock_gettime CLOCK_MONOTONIC, no allocation):
   the ledger times calls of a few tens of nanoseconds, which the
   microsecond [Unix.gettimeofday] cannot resolve. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
