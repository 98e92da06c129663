(** The simulated virtual machine.

    A VM assembles the substrate (object store, roots, collector) with
    the leak pruning controller and the cost model, and exposes the
    program-facing services: class registration, statics, threads and
    frames, allocation with the collection/out-of-memory protocol of
    paper Section 2, and cycle accounting. Reference {e reads} go through
    {!Mutator}, which implements the read barrier.

    Programs (workloads) must follow heap discipline: any object held
    across a potential collection point (any allocation) must be
    reachable from a root — a static field, an object field, or a frame
    slot obtained from {!with_frame}. The VM detects violations: touching
    a reclaimed object raises {!Lp_heap.Store.Dangling_reference}. *)

open Lp_heap

type t

type gc_record = {
  gc_number : int;
  live_bytes_after : int;
  state : Lp_core.State_kind.t;  (** state in which the collection ran *)
}

val create :
  ?config:Lp_core.Config.t ->
  ?cost:Cost.t ->
  ?charge_barriers:bool ->
  ?disk:Diskswap.config ->
  ?swap_backend:Diskswap.backend ->
  ?resurrection:bool ->
  ?nursery_bytes:int ->
  ?fault:Lp_fault.Fault_plan.t ->
  heap_bytes:int ->
  unit ->
  t
(** [charge_barriers] controls only the {e cycle cost} of read barriers,
    never their semantics (the paper's "unmodified Jikes RVM" baseline
    compiles no barriers; we model that as charging nothing for them).
    [nursery_bytes] enables generational mode, as in the paper's MMTk
    substrate: allocation goes to a logical nursery of that size, cheap
    minor collections promote survivors, and only full-heap collections
    drive leak pruning. [fault] threads a fault-injection plan through
    the runtime: the store consults its [Alloc] site on every
    allocation, the disk baseline its [Disk] site on every
    post-collection disk operation (the [Step] site is driven by the
    chaos harness). [resurrection] (default [false], preserving the
    paper's semantics where pruned data is gone for good) enables the
    resurrection subsystem: PRUNE collections serialize doomed objects
    into checksummed swap images, and the read barrier restores a
    pruned target from its image on access instead of raising — see
    {!try_resurrect}. [swap_backend] attaches the VM's swap store to a
    shared disk backend (fleet mode): [disk.disk_limit_bytes] becomes
    the tenant's quota and offloads are admission-gated — see
    {!Diskswap.create_backend}. Defaults: paper-default pruning config,
    default costs, barriers charged, no disk baseline, no shared
    backend, no resurrection, non-generational, no faults.

    Every VM starts with a store of its own and object ids from 1; a
    fleet's warm restart boots one like any other and then imports the
    controller brain.

    @raise Invalid_argument when [config] fails
    {!Lp_core.Config.validate}. *)

(** {1 Components} *)

val store : t -> Store.t
val roots : t -> Roots.t
val registry : t -> Class_registry.t
val stats : t -> Gc_stats.t
val controller : t -> Lp_core.Controller.t
val cost : t -> Cost.t
val swap : t -> Diskswap.t
(** The VM's swap store. Always present: prune images live here even
    without the offload baseline (the store is then unbounded and only
    image retention limits it). *)

val offloading : t -> bool
(** Whether the disk-offload {e baseline} was configured via [?disk]:
    only then does the store hold offload payloads, run the
    post-collection disk phase and fault objects back in from the read
    barrier. *)

val resurrection_enabled : t -> bool

val charge_barriers : t -> bool
val remset : t -> Remset.t
val fault_plan : t -> Lp_fault.Fault_plan.t option

(** {1 The collector}

    Every full-heap collection runs on one {!Lp_heap.Collector}, built
    at {!create} and owned by the controller
    ({!Lp_core.Controller.engine}), the VM's only handle on it:

    - without a pause SLO (the default): each collection is one
      pause, recorded as one [Monolithic] sample;
    - with [Config.pause_slo_p99_ns] set: the closures run in slices
      of at most the autopilot's current budget in objects, and the
      sweep in segments of that many slots, one tagged pause sample
      each.

    The engine is deterministic by construction: heap state, counters,
    prune decisions, reclaimed bytes, the simulated clock and the trace
    (filtered by {!Lp_obs.Event.deterministic}) are identical with and
    without a budget. Only the wall-clock pause profile differs. *)

val autopilot : t -> Lp_slo.Autopilot.t option
(** The pause-SLO autopilot, present iff [Config.pause_slo_p99_ns] was
    set. After every full collection the VM feeds it the collection's
    phase-tagged pause samples, then applies the returned slice budget
    to the engine. The budget starts at 256 objects and never drops
    below 32. *)

val gc_pause_ns : t -> int
(** Cumulative wall-clock nanoseconds spent inside full-heap collections
    (mark through sweep, plus the disk phase). Wall time, not simulated
    cycles — used by the GC benchmarks only; traces never record it. *)

val pause_samples : t -> (Trace_engine.pause_phase * int) list
(** Individual phase-tagged wall-clock pause samples (nanoseconds),
    oldest first. An engine without a slice budget contributes one
    [Monolithic]
    sample per full collection. A sliced engine contributes one
    [Mark_slice] sample per mark/closure slice and one [Sweep_slice]
    sample per sweep segment; whatever the collection spent outside
    the slices (finalizer scan, phase glue, disk) is folded into the
    collection's last slice, so [Monolithic] appears {e only} for
    engines without a budget — "no [Monolithic] sample" is exactly the
    statement that every pause was slice-bounded. Every sample also
    lands in the [gc.pause_ns] metrics histogram. The VM keeps the
    history as one int per sample and builds the list on each call. *)

val pause_samples_ns : t -> int list
(** {!pause_samples} without the tags. *)

val shutdown : t -> unit
(** Does nothing: the engine holds no resource. Kept only because the
    benchmark in [perfbench/] calls it; it goes with the next change to
    that benchmark. *)

(** {1 Observability}

    The metrics registry is always on — the controller, the swap store
    and (on demand) the collector counters publish into it, and
    {!metrics_snapshot} is the single consistent view. Event tracing is
    opt-in: until {!enable_trace} attaches a sink, every emission site
    in the VM, the mutator barriers, the controller and the collector
    costs exactly one branch on a [None], and the {!Mutator.read} fast
    path (null or clean reference) has no instrumentation at all. *)

val metrics_snapshot : t -> Lp_obs.Metrics.snapshot
(** Publishes the collector's {!Gc_stats} counters into the registry,
    then snapshots it. Includes the retained [gc.staleness_histogram]
    series: one per-staleness-level live-object count array per
    full-heap collection, last 16 collections. *)

val enable_trace : ?capacity:int -> t -> Lp_obs.Sink.t
(** Attaches a fresh event sink (drop-oldest ring, default capacity
    65,536 events) clocked by the VM's simulated
    cycles, and wires it into the controller and the swap store. Traces
    are deterministic: no wall time is ever recorded. *)

val sink : t -> Lp_obs.Sink.t option

val trace_events : t -> Lp_obs.Event.stamped list
(** The sink's retained events, oldest first ([[]] with no sink). *)

(** {1 Classes and statics} *)

val register_class : t -> string -> Class_registry.id

val statics : t -> class_name:string -> n_fields:int -> Heap_obj.t
(** The per-class statics object (class ["<name>$Statics"]), allocated
    and registered as a permanent root on first request. Subsequent
    requests return the same object; [n_fields] must then match. *)

(** {1 Threads and frames} *)

val spawn_thread : t -> Roots.thread

val kill_thread : t -> Roots.thread -> unit

val with_frame : t -> ?thread:Roots.thread -> n_slots:int -> (Roots.frame -> 'a) -> 'a
(** Pushes a frame (on the main thread by default), runs the function,
    and pops the frame even on exceptions. *)

val deref : t -> int -> Heap_obj.t
(** Resolve a frame-slot object identifier. Local-variable access is not
    a heap reference load, so no barrier runs and no staleness clears. *)

(** {1 Allocation} *)

val alloc :
  t ->
  class_name:string ->
  ?scalar_bytes:int ->
  ?finalizer:(Heap_obj.t -> unit) ->
  n_fields:int ->
  unit ->
  Heap_obj.t
(** Allocates an object, running collections (and, when pruning is
    enabled and engaged, SELECT/PRUNE collections) as needed.
    @raise Lp_core.Errors.Out_of_memory when memory is exhausted and
    cannot be reclaimed.
    @raise Lp_core.Errors.Disk_exhausted under the disk baseline when
    the disk fills and the bounded degradation retries (see {!run_gc})
    cannot relieve it. *)

val alloc_class :
  t ->
  class_id:Class_registry.id ->
  ?scalar_bytes:int ->
  ?finalizer:(Heap_obj.t -> unit) ->
  n_fields:int ->
  unit ->
  Heap_obj.t
(** Same, for a pre-registered class id (avoids the name lookup on hot
    paths). *)

(** {1 Collection} *)

val disk_retry_attempts : int
(** Degraded re-collections {!run_gc} attempts after the disk-swap
    baseline reports [Out_of_disk]: 2. *)

val max_slow_path_attempts : int
(** Collections one allocation may trigger while advancing through the
    SELECT/PRUNE protocol, and store refusals it may absorb, before the
    out-of-memory error is thrown: 24. *)

val run_gc : t -> unit
(** Forces a full-heap collection now (used by tests and experiments;
    programs normally collect only on allocation pressure). Under the
    disk baseline a failing post-collection disk operation is retried
    with a bounded degradation policy — re-collect, then reconcile with
    offloading disabled, {!disk_retry_attempts} times — before
    {!Lp_core.Errors.Disk_exhausted} surfaces; the raw
    {!Diskswap.Out_of_disk} never escapes the VM. *)

val gc_count : t -> int
(** Full-heap collections (the ones leak pruning works in). *)

val minor_gc_count : t -> int
(** Minor (nursery) collections; 0 unless generational mode is on. *)

val generational : t -> bool

val remember_write : t -> src:Heap_obj.t -> field:int -> tgt:Heap_obj.t -> unit
(** Generational write barrier: records a mature-to-nursery reference
    slot in the remembered set (no-op otherwise). Called by {!Mutator}. *)

val set_gc_listener : t -> (gc_record -> unit) option -> unit
(** Invoked after every collection; used by the harness to record the
    reachable-memory series of Figures 1 and 9. *)

val gc_history : t -> gc_record list
(** All collections so far, oldest first. *)

(** {1 Time} *)

val cycles : t -> int
(** Total simulated cycles: mutator work plus collector work. *)

val gc_cycles : t -> int
(** Collector share of {!cycles}. *)

val work : t -> int -> unit
(** Charge non-reference computation (the workload's "real work"). *)

val charge : t -> int -> unit
(** Charge arbitrary mutator cycles (used by {!Mutator}). *)

(** {1 Introspection} *)

val live_bytes : t -> int
(** Reachable bytes retained by the last collection (on-disk bytes under
    the disk baseline are excluded). *)

val used_bytes : t -> int

val assert_live : t -> Heap_obj.t -> unit
(** @raise Store.Dangling_reference when the object has been reclaimed
    (a heap-discipline violation in the calling program, or a collector
    bug). *)

(** {1 Fault injection} *)

val inject_word_corruption :
  t -> Heap_obj.t -> field:int -> [ `Poison | `Retarget of int | `Dangle ] -> unit
(** Deliberately damages one reference word of a live object (chaos
    testing): [`Poison] sets the poison bit as if the reference had been
    pruned, [`Retarget id] silently repoints it, [`Dangle] points it at
    an identifier with no live object. The damage is recorded in
    {!corruptions_injected} so the heap verifier can keep its poison
    accounting closed. The runtime must survive all three: the collector
    and the read barrier quarantine dangling words and raise only
    structured errors. *)

val corruptions_injected : t -> int

(** {1 Resurrection} *)

val try_resurrect :
  t ->
  Lp_heap.Heap_obj.t ->
  field:int ->
  (Heap_obj.t, Lp_core.Errors.resurrection_failure) result
(** Barrier-level recovery of a poisoned reference in
    field [field] of [src] (called by {!Mutator.read}; exposed for tests).
    If the pruned target was already resurrected through a sibling
    reference, the word is rewired to the forwarded copy; if it never
    died at all (it survived through another live path, so no image was
    captured), the word is simply un-poisoned. Otherwise its
    swap image is loaded and validated (torn or corrupt images yield the
    corresponding {!Lp_core.Errors.resurrection_failure}), the object is
    re-allocated through a bounded collect-and-retry loop
    (at most 4 collections, then [Reallocation_exhausted]), its fields are restored — a plain
    reference only when its target is live with the class recorded at
    capture time, everything else re-poisoned (counted in
    [Gc_stats.words_repoisoned]) — and the forwarding table and
    misprediction feedback ({!Lp_core.Controller.note_misprediction})
    are updated. On [Ok] the triggering word is already rewired and the
    load can be retried. *)
