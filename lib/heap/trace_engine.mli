(** The first-class tracing-engine seam.

    A [Trace_engine.t] bundles every phase the controller drives during
    a full-heap collection — in-use mark, stale closure, sweep — plus
    the runtime hooks an engine may provide (minor-collection drain,
    pause reporting, shutdown). The controller holds exactly one engine
    value and dispatches through these closures only; it never knows
    which engine is installed.

    Two engines implement the contract, each with or without a slice
    budget:

    - {!Inc_engine} — the single-domain DFS: ["seq"] without a budget,
      ["inc<b>"] run in budgeted slices so max pause shrinks;
    - [Lp_par.Par_engine] — BSP packet-sharded parallel marking on a
      domain pool: ["par<n>"], or ["bsp<n>"] with its rounds merged in
      budgeted groups.

    Every engine is deterministic by construction: marked set, prune
    decisions, counters and reclaimed totals are identical across
    engines for the same program and seed (the differential oracle in
    the test suite enforces this). Only scheduling — and therefore wall
    time — differs. *)

type pause_phase = Mark_slice | Sweep_slice | Monolithic
(** What kind of mutator-visible pause a sample measures: a bounded
    mark (or stale-closure) slice, a bounded sweep segment, or a whole
    stop-the-world collection. Benches and the pause-SLO autopilot
    dispatch on the tag; before it existed the monolithic sweep
    remainder was indistinguishable from a slice sample. *)

val pause_phase_name : pause_phase -> string
(** ["mark_slice"], ["sweep_slice"], ["monolithic"]. *)

type t = {
  name : string;  (** display label: ["seq"], ["par4"], ["inc64"], ... *)
  mark :
    gc:int ->
    ?edge_note:(Trace_common.edge -> (int * int * int) option) ->
    ?apply_note:(int * int * int -> unit) ->
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
          same rule. [edge_note] is evaluated against every live
          scanned edge; it must be pure — an engine may evaluate it
          anywhere but must invoke [apply_note] for the resulting
          notes in canonical scan order. *)
  begin_stale : unit -> unit;
      (** Called once before a SELECT collection's stale-closure loop. *)
  stale_closure :
    gc:int ->
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
  end_stale : gc:int -> events:Lp_obs.Sink.t option -> unit;
      (** Called once after the stale-closure loop (worker-span flush in
          the parallel engine; no-op elsewhere). *)
  sweep : gc:int -> ?events:Lp_obs.Sink.t -> Store.t -> stats:Gc_stats.t -> unit;
      (** Frees every unmarked object, clears the GC bits of
          survivors, and records the surviving bytes in the store as
          its new live size, freeing in strictly descending slot order
          so id recycling is identical across engines (see
          {!Trace_common.sliced_sweep}). *)
  minor_drain :
    (Store.t -> queue:int array -> slots_scanned:int ref -> unit) option;
      (** When present, the minor collector hands its marked seed set to
          this drain instead of running its own loop. *)
  take_pauses : unit -> (pause_phase * int) list;
      (** Drains the engine's recorded pause slices (phase tag and wall
          nanoseconds, oldest first) since the last call. Whole-pause
          engines return [[]]; the VM then accounts the full collection
          as one [Monolithic] pause. *)
  max_slice_work : unit -> int;
      (** Largest number of objects scanned in a single mark slice so
          far (0 for engines without a slice budget) — the deterministic
          quantity the pause-bench budget gate checks. *)
  shutdown : unit -> unit;
      (** Releases engine resources (joins the domain pool); idempotent. *)
}
