(** The three workloads and the metrics they report.

    Every workload runs a fixed number of equal-work units — fresh-VM
    {e blocks} for [leak-steady] and [pool-overhead], [Fleet.run]
    {e sessions} for [fleet-serve] — sized from [seconds] and a
    per-workload rate, so the work (and the output fingerprint) depends
    only on the seed and the requested length, never on the host's
    speed. Unit 0 is a warm-up and is never timed. In a traced run the
    units after the warm-up alternate untraced / traced, so the run
    measures its own tracing overhead. *)

type metric = { name : string; unit_ : string; value : float }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
      (** the end-to-end metrics untraced, the per-layer ones traced *)
  info : (string * string) list;  (** extra report fields, values as JSON *)
}

val workloads : string list
(** ["leak-steady"; "pool-overhead"; "fleet-serve"]. *)

val end_to_end_names : string list
val per_layer_names : string list

val units_for : workload:string -> seconds:int -> int
(** Units (blocks or sessions, warm-up included) a run of that length
    performs. *)

val run : workload:string -> seed:int -> units:int -> trace:bool -> outcome
(** Every unit computes a deterministic fingerprint of its outputs
    (full collections, bytes reclaimed, references poisoned and
    iterations; for the fleet, served/shed/restart counts and the digest
    of [Fleet.deterministic_view]); the first unit's is in [info]. A
    unit with a failed check or a fingerprint other than the first
    unit's makes the run incorrect, counts every operation it was due
    as failed, and is left out of the timings.
    @raise Invalid_argument on an unknown workload or [units < 2]. *)

val json_string : string -> string
(** A JSON string literal (quotes, backslashes and control characters
    escaped). *)

