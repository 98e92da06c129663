(** The collector: one mark-sweep engine, with or without a pause bound.

    The paper piggybacks leak pruning on MMTk's mark-sweep collector by
    splitting the usual transitive closure into an {e in-use} closure
    and a {e stale} closure (Section 4.2). This module is that
    collector. It declares the edge vocabulary the controller's filters
    are written against and runs every phase as a DFS over an
    engine-owned mark stack, with one scan loop for the in-use closure,
    every stale closure and every budgeted slice. The controller
    composes the phases per collection mode:

    - base/observe collection: {!mark} with no filter, then
      {!resurrect_finalizables}, then {!sweep};
    - SELECT collection: {!mark} with a filter deferring candidate
      references, then {!stale_closure} per candidate in
      {!canonical_candidates} order, then finalizers and sweep;
    - PRUNE collection: {!mark} with a filter poisoning selected
      references, then finalizers and sweep.

    With no slice budget every phase runs to completion as one pause:
    {!take_pauses} returns [[]], so the VM accounts each collection as
    one [Monolithic] sample. With a budget the closures yield every
    [slice_budget] scanned objects and the sweep runs in segments of
    [slice_budget] slots, so no phase pauses for longer than one
    budgeted slice. Marked set, deferred candidate order, staleness
    ticks, free order and every {!Gc_stats} counter are bit-identical
    with and without a budget by construction; only the pause profile
    changes. The test suite's reference collector
    ([test/reference_collector.ml]) is a second, plainly written
    implementation that every budget is compared with. *)

type edge = { src : int; field : int; tgt : int }
(** A heap reference under examination: field [field] of the live
    object with identifier [src] refers to the live object with
    identifier [tgt]; their headers, classes and sizes are read from
    the {!Store}. *)

type edge_action =
  | Trace  (** follow the reference normally *)
  | Defer  (** add to the candidate queue; do not trace now (SELECT) *)
  | Poison  (** invalidate the reference and do not trace it (PRUNE) *)

type mark_config = {
  set_untouched_bits : bool;
      (** set bit 0 of every scanned object-to-object reference so the
          read barrier can detect first use after this collection; enabled
          from the OBSERVE state onwards *)
  stale_tick_gc : int option;
      (** when [Some gc_number], apply the Section 4.1 staleness
          increment to each object marked during the closure — ticking
          piggybacks on tracing, as in the paper, so only live objects
          pay for it. A filtered closure applies the ticks in
          one batch after it finishes rather than at each mark, so its
          filter decisions see the mark-start staleness wherever slices
          cut the traversal; the final counters are the same either
          way *)
  edge_filter : (edge -> edge_action) option;
      (** [None] traces everything (base collection). The filter is
          the closure's only reader of its edges: it runs once on every
          live scanned edge, in scan order, and may act on the edge
          before it returns (the Individual-refs byte accounting and
          the liveness audit do) *)
  on_poison : (edge -> unit) option;
      (** invoked for every edge the filter resolves to [Poison], before
          the word is poisoned — the target and its subtree are still
          fully intact, which is the window the resurrection subsystem
          uses to serialize swap images of the doomed closure *)
  events : Lp_obs.Sink.t option;
      (** observability sink: per-edge [Edge_poisoned] and [Quarantine]
          events are emitted as the scan applies them; [None] costs one
          branch per poisoned or quarantined edge and nothing on traced
          edges *)
}

val base_config : mark_config
(** No untouched bits, no ticks, no filter. *)

val canonical_candidates : edge list -> edge list
(** Sorts a candidate queue into the canonical (source id, field) order
    — a total order on edges. Stale closures claim shared
    sub-structures first-come-first-served, so candidate order affects
    byte attribution; processing in canonical order makes SELECT
    outcomes independent of traversal order and slice budget. *)

type t
(** One engine: its mark stack, tick batch, slice budget and pause
    samples. Buffers are reused for every collection, which keeps a
    steady-state collection's OCaml allocation constant whatever the
    heap size; they are never shared between engines (several VMs run
    in one process). *)

val create : ?slice_budget:int -> unit -> t
(** [slice_budget] is the maximum number of objects one mark slice may
    scan, and the sweep segment size in slots ([>= 1];
    [Invalid_argument] otherwise). Without it each phase is one pause. *)

val set_slice_budget : t -> int -> unit
(** Retunes the budget between collections (the pause-SLO autopilot's
    actuator). Outcome-neutral by construction — the budget only moves
    slice boundaries. [Invalid_argument] if the budget is [< 1] or the
    engine was created without a budget. *)

val slices : t -> int
(** Mark slices run so far, across all collections (0 without a
    budget). *)

val mark :
  t ->
  Store.t ->
  Roots.t ->
  stats:Gc_stats.t ->
  config:mark_config ->
  edge list
(** The in-use closure from the roots. Marks every object reached
    through [Trace] edges, applies [Poison] in place, and returns the
    [Defer]red edges in discovery order (the candidate queue). Poisoned
    references found in the heap are never traced. A non-null,
    non-poisoned word whose target is not live (a corrupt reference)
    is {e quarantined} — poisoned in place and counted in
    [Gc_stats.words_quarantined] — rather than crashing the
    collection; the other phases apply the same rule. A target
    is checked and claimed through its header word alone; no target
    handle is loaded. [Store.Dangling_reference] if a root names a
    free slot. *)

val stale_closure :
  t ->
  ?events:Lp_obs.Sink.t ->
  Store.t ->
  stats:Gc_stats.t ->
  set_untouched_bits:bool ->
  stale_tick_gc:int option ->
  edge ->
  int
(** Marks live everything reachable from the candidate edge's target
    that no earlier closure claimed, and returns the number of bytes
    claimed — the size of the stale data structure rooted there.
    Claimed objects carry the stale-mark diagnostic bit. *)

val resurrect_finalizables :
  Store.t -> stats:Gc_stats.t -> on_finalize:(Heap_obj.t -> unit) -> unit
(** Runs between mark and sweep: finds unreachable objects whose
    finalizer has not run, invokes [on_finalize], marks them and their
    referents live for this collection (the finalizer may access them),
    and records that the finalizer ran so the object is ordinarily
    reclaimed by the next collection. *)

val sweep : t -> Store.t -> stats:Gc_stats.t -> unit
(** Frees every unmarked object, clears the GC bits of survivors, and
    records the surviving bytes in the store as its new live size.
    Slots are freed in strictly descending order, whatever the budget,
    so the store's free-id recycling does not depend on it. *)

val take_pauses : t -> (Trace_engine.pause_phase * int) list
(** Drains the recorded pause slices (phase tag and wall nanoseconds,
    oldest first) since the last call: one [Mark_slice] per mark or
    stale-closure slice and one [Sweep_slice] per sweep segment. An
    engine without a budget returns [[]]; the VM then accounts the
    whole collection as one [Monolithic] pause. *)

val max_slice_work : t -> int
(** Largest number of objects scanned in a single mark slice so far (0
    without a budget) — the deterministic quantity the pause-bench
    budget gate checks. *)
