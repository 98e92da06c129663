(** The pause-SLO autopilot: feedback-controlled GC scheduling.

    Given a target p99 pause, the autopilot watches the VM's
    phase-tagged pause samples and, between collections, (a) retunes
    the sliced engines' slice budget through a PID loop on a
    nanosecond-denominated budget, and (b) picks the next collection's
    domain count — one while the workload is interactive, the
    configured [domains] when the last SELECT decision predicts a stale
    closure large enough to be worth parallel marking. Every collection
    under the autopilot is sliced.

    The two planes have deliberately different determinism: the budget
    is wall-clock-fed (outcome-neutral — budgets only move slice
    boundaries, never what gets reclaimed) while the domain count keys
    off SELECT's predicted bytes, a deterministic signal, so engine
    schedules replay bit-identically. The object-count budget never
    drops below the configured floor, keeping count-based invariants
    meaningful on arbitrarily slow hosts. *)

type t

type decision = {
  d_budget : int;  (** slice budget for the next collection, objects *)
  d_domains : int;  (** domains for the next collection: 1 or [domains] *)
  d_p99_ns : int;  (** the window p99 that drove the budget *)
  d_budget_changed : bool;
}

val create :
  target_p99_ns:int ->
  floor:int ->
  domains:int ->
  escalate_permille:int ->
  init_budget:int ->
  t
(** [floor] is the deterministic object-count floor
    ([Config.slo_budget_floor]); [domains] the escalation domain
    count ([Config.slo_domains]); [escalate_permille] the stale-closure-size threshold as
    a fraction of the heap limit; [init_budget] the object budget in
    effect before any feedback.
    @raise Invalid_argument on a non-positive target, floor or
    budget. *)

val note_collection :
  t ->
  samples:(Lp_heap.Trace_engine.pause_phase * int) list ->
  selection_bytes:int ->
  heap_limit:int ->
  decision
(** Feeds one finished collection's phase-tagged pause samples
    (nanoseconds) and the last SELECT decision's predicted
    stale-closure size (0 when no selection is pending), and returns
    the budget and domain count for the {e next} collection. [Mark_slice]
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

val switches : t -> int
(** Domain-count changes decided so far. *)

val escalations : t -> int
(** Distinct escalation episodes (one domain -> [domains]). *)

val samples_seen : t -> int
