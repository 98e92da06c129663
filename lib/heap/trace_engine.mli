(** The first-class tracing-engine seam.

    A [Trace_engine.t] bundles every phase the controller drives during
    a full-heap collection — in-use mark, stale closure, sweep — plus
    the engine's pause reporting. The controller holds exactly one
    engine value and dispatches through these closures only; it never
    knows which engine is installed.

    One engine implements the contract, with or without a slice budget:
    {!Inc_engine}, the single-domain DFS — ["seq"] without a budget,
    ["inc<b>"] run in budgeted slices so max pause shrinks. The test
    suite's reference collector ([test/reference_collector.ml]) is the
    second implementation, installed through this record so every
    engine setting can be compared with it.

    The engine is deterministic by construction: marked set, prune
    decisions, counters and reclaimed totals are identical with and
    without a budget and equal the reference collector's (the
    differential oracle in the test suite enforces this). Only the
    pause profile — and therefore wall time per pause — differs. *)

type pause_phase = Mark_slice | Sweep_slice | Monolithic
(** What kind of mutator-visible pause a sample measures: a bounded
    mark (or stale-closure) slice, a bounded sweep segment, or a whole
    stop-the-world collection. Benches and the pause-SLO autopilot
    dispatch on the tag; before it existed the monolithic sweep
    remainder was indistinguishable from a slice sample. *)

val pause_phase_name : pause_phase -> string
(** ["mark_slice"], ["sweep_slice"], ["monolithic"]. *)

type t = {
  name : string;  (** display label: ["seq"], ["inc64"], ["ref"] *)
  mark :
    ?note:(Trace_common.edge -> unit) ->
    Store.t ->
    Roots.t ->
    stats:Gc_stats.t ->
    config:Trace_common.mark_config ->
    Trace_common.edge list;
      (** The in-use closure from the roots. Marks every object reached
          through [Trace] edges, applies [Poison] in place, and returns
          the [Defer]red edges in discovery order (the candidate
          queue). Poisoned references found in the heap are never
          traced. A non-null, non-poisoned word whose target is not
          live (a corrupt reference) is {e quarantined} — poisoned in
          place and counted in [Gc_stats.words_quarantined] — rather
          than crashing the collection; the other phases apply the
          same rule. [note] runs on every live scanned edge, in scan
          order, before the filter (the Individual_refs byte
          accounting and the liveness audit). *)
  stale_closure :
    ?events:Lp_obs.Sink.t ->
    Store.t ->
    stats:Gc_stats.t ->
    set_untouched_bits:bool ->
    stale_tick_gc:int option ->
    Trace_common.edge ->
    int;
      (** Marks live everything reachable from the candidate edge's
          target that no earlier closure claimed, and returns the
          number of bytes claimed — the size of the stale data
          structure rooted there. Claimed objects carry the stale-mark
          diagnostic bit. *)
  sweep : Store.t -> stats:Gc_stats.t -> unit;
      (** Frees every unmarked object, clears the GC bits of
          survivors, and records the surviving bytes in the store as
          its new live size, freeing in strictly descending slot order
          so id recycling does not depend on the slice budget (see
          {!Trace_common.sliced_sweep}). *)
  take_pauses : unit -> (pause_phase * int) list;
      (** Drains the engine's recorded pause slices (phase tag and wall
          nanoseconds, oldest first) since the last call. Whole-pause
          engines return [[]]; the VM then accounts the full collection
          as one [Monolithic] pause. *)
  max_slice_work : unit -> int;
      (** Largest number of objects scanned in a single mark slice so
          far (0 for engines without a slice budget) — the deterministic
          quantity the pause-bench budget gate checks. *)
}
