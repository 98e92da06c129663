(** Sequential stop-the-world tracing collector primitives.

    The paper piggybacks leak pruning on MMTk's parallel mark-sweep
    collector by splitting the usual transitive closure into an {e in-use}
    closure and a {e stale} closure (Section 4.2). This module provides
    the sequential (single-slice DFS) phases on top of the shared scan in
    {!Trace_common}; the [Lp_core] library composes them per collection
    mode through a {!Trace_engine}:

    - base/observe collection: [mark] with no filter, then
      [resurrect_finalizables], then [sweep];
    - SELECT collection: [mark] with a filter deferring candidate
      references, then [stale_closure] per candidate, then finalizers and
      sweep;
    - PRUNE collection: [mark] with a filter poisoning selected
      references, then finalizers and sweep.

    The closures are iterative over an explicit {!Work_queue} the engine
    owns and reuses (see {!Trace_common.buffers}), mirroring the
    shared-pool structure of the paper's parallel collector while
    remaining deterministic. The edge vocabulary below is re-exported
    from {!Trace_common} (the types are equal), so filters written
    against either module interoperate. *)

type edge = Trace_common.edge = {
  src : Heap_obj.t;
  field : int;
  tgt : Heap_obj.t;
}
(** A heap reference under examination: [src.fields.(field)] refers to
    [tgt]. *)

type edge_action = Trace_common.edge_action =
  | Trace  (** follow the reference normally *)
  | Defer  (** add to the candidate queue; do not trace now (SELECT) *)
  | Poison  (** invalidate the reference and do not trace it (PRUNE) *)

type mark_config = Trace_common.mark_config = {
  set_untouched_bits : bool;
      (** set bit 0 of every scanned object-to-object reference so the
          read barrier can detect first use after this collection; enabled
          from the OBSERVE state onwards *)
  stale_tick_gc : int option;
      (** when [Some gc_number], apply the Section 4.1 staleness
          increment to each object marked during the closure — ticking
          piggybacks on tracing, as in the paper, so only live objects
          pay for it. The ticks are applied in one batch after the
          closure finishes rather than at each mark; see
          {!Trace_common.tick_batch} for the invariant *)
  edge_filter : (edge -> edge_action) option;
      (** [None] traces everything (base collection) *)
  on_poison : (edge -> unit) option;
      (** invoked for every edge the filter resolves to [Poison], before
          the word is poisoned — the target and its subtree are still
          fully intact, which is the window the resurrection subsystem
          uses to serialize swap images of the doomed closure *)
  events : Lp_obs.Sink.t option;
      (** observability sink: per-edge [Edge_poisoned] and [Quarantine]
          events are emitted as the scan applies them; [None] (the
          default) costs one branch per poisoned or quarantined edge and
          nothing on traced edges *)
}

val base_config : mark_config
(** No untouched bits, no filter. *)

val mark_object : Gc_stats.t -> ?stale_tick_gc:int option -> Heap_obj.t -> unit
(** Sets the mark bit, counts the object, and applies the staleness
    tick immediately when [stale_tick_gc] is [Some _]. The closures in
    this module and the other engines defer their ticks instead (see
    {!mark_config.stale_tick_gc}); this entry point is for callers
    marking outside a filtered closure. *)

val tick : Gc_stats.t -> int option -> Heap_obj.t -> unit
(** The bare staleness tick (no marking); see {!mark_object}. *)

val mark :
  ?edge_note:(edge -> (int * int * int) option) ->
  ?apply_note:(int * int * int -> unit) ->
  buffers:Trace_common.buffers ->
  Store.t ->
  Roots.t ->
  stats:Gc_stats.t ->
  config:mark_config ->
  edge list
(** Runs the in-use transitive closure from the roots. Marks every object
    reached through [Trace] edges, applies [Poison] in place, and returns
    the [Defer]red edges in discovery order (the candidate queue).
    Poisoned references found in the heap are never traced. A non-null,
    non-poisoned word whose target is not live (a corrupt reference) is
    {e quarantined} — poisoned in place and counted in
    [Gc_stats.words_quarantined] — rather than crashing the collection;
    the phases below apply the same rule. [edge_note] is evaluated
    against every live scanned edge and [apply_note] applied immediately
    for every [Some] note — the Individual_refs byte accounting, split
    so the same call shape works on engines (parallel) that must keep
    the evaluation pure and apply at a merge point. [buffers] is the
    caller's scratch space, emptied on entry; an engine passes the one it
    owns, so marking allocates nothing in proportion to the heap. *)

val stale_closure :
  ?events:Lp_obs.Sink.t ->
  buffers:Trace_common.buffers ->
  Store.t ->
  stats:Gc_stats.t ->
  set_untouched_bits:bool ->
  stale_tick_gc:int option ->
  edge ->
  int
(** [stale_closure store ~stats ~set_untouched_bits e] marks live
    everything reachable from candidate [e] that no earlier closure
    claimed, and returns the number of bytes claimed — the size of the
    stale data structure rooted at [e.tgt]. Objects claimed here carry the
    stale-mark diagnostic bit. [buffers] is emptied on entry, as in
    {!mark}. *)

val resurrect_finalizables :
  Store.t -> stats:Gc_stats.t -> on_finalize:(Heap_obj.t -> unit) -> unit
(** Finds unreachable objects whose finalizer has not run, invokes
    [on_finalize], marks them and their referents live for this collection
    (the finalizer may access them), and records that the finalizer ran so
    the object is ordinarily reclaimed by the next collection. *)

val sweep : Store.t -> stats:Gc_stats.t -> unit
(** Frees every unmarked object, clears the GC bits of survivors, and
    records the surviving bytes in the store as its new live size: the
    one-segment case of {!Trace_common.sliced_sweep}, freeing in
    place in strictly descending slot order. *)
