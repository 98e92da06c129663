(** The pause-SLO autopilot: feedback-controlled slice budgets.

    Given a target p99 pause, the autopilot watches the VM's
    phase-tagged pause samples and, between collections, retunes the
    engine's slice budget through a PID loop on a
    nanosecond-denominated budget. Every collection under the autopilot
    is sliced.

    The budget is wall-clock-fed, which is safe because it is
    outcome-neutral: budgets only move slice boundaries, never what
    gets reclaimed. The object-count budget never drops below the
    given floor, keeping count-based invariants meaningful on
    arbitrarily slow hosts. *)

type t

type decision = {
  d_budget : int;  (** slice budget for the next collection, objects *)
  d_p99_ns : int;  (** the window p99 that drove the budget *)
  d_budget_changed : bool;
}

val create : target_p99_ns:int -> floor:int -> init_budget:int -> t
(** [floor] is the deterministic object-count floor (the VM passes
    32); [init_budget] the object budget in effect before any feedback
    (the VM passes 256).
    @raise Invalid_argument on a non-positive target, floor or
    budget. *)

val note_collection :
  t -> samples:(Lp_heap.Trace_engine.pause_phase * int) list -> decision
(** Feeds one finished collection's phase-tagged pause samples
    (nanoseconds) and returns the budget for the {e next} collection.
    [Mark_slice]
    samples also update the per-object cost estimate that converts the
    ns budget into an object count. *)

val p99_ns : t -> int
(** Current p99 over the sample window (up to the last 256 samples);
    0 before any sample. *)

val target : t -> int
val budget : t -> int
(** The object-count slice budget currently in effect. *)


val adjustments : t -> int
(** Collections after which the object budget actually changed. *)

val escalations : t -> int
(** Always 0. The benchmark in [perfbench/] still reads this counter,
    so it stays until the next change to that benchmark. *)

val samples_seen : t -> int
