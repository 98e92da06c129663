(** The leak pruning controller: one instance per VM.

    The controller owns the state machine, the edge table and the
    selection result, and composes the collector phases into the four
    kinds of full-heap collection:

    - INACTIVE (or pruning disabled): a plain tracing collection;
    - OBSERVE: stale counters ticked and untouched bits set;
    - SELECT: the two-phase in-use/stale closure (Section 4.2) followed by
      edge-type selection — or, per policy, the Most-stale level scan or
      the Individual-references attribution;
    - PRUNE: the in-use closure with poisoning of the selection
      (Section 4.3).

    It also implements the allocation-failure protocol of Section 2:
    deciding whether a failed allocation should retry after another
    (possibly pruning) collection or finally throw, and recording the
    averted out-of-memory error that poisoned-access internal errors
    carry as their cause. *)

open Lp_heap

type t

val create :
  ?metrics:Lp_obs.Metrics.t ->
  ?engine:Collector.t ->
  Config.t ->
  Class_registry.t ->
  t
(** @raise Invalid_argument when the configuration fails
    {!Config.validate}. [metrics] is the registry the controller
    publishes its counters into ([controller.mispredictions],
    [prune.decisions], [prune.refs_poisoned], [prune.bytes_reclaimed]);
    a private registry is created when omitted, so standalone
    controllers keep working unchanged. [engine] is the collector
    every full-heap collection runs on ({!Lp_heap.Collector}); when
    omitted the controller creates one with no slice budget. The marked
    set, the prune decisions, every [Gc_stats] counter and the
    reclaimed bytes do not depend on the engine's slice budget — only
    the pause profile does. *)

val set_sink : t -> Lp_obs.Sink.t option -> unit
(** Attaches (or detaches) the event sink. With a sink attached, each
    full-heap collection emits phase spans (mark, stale_closure,
    selection, finalizers, sweep), per-edge poison events from the
    collector, one [Prune_decision] per PRUNE collection carrying the
    same reclaimed-bytes figure the [prune.bytes_reclaimed] counter
    accumulates, and [Safe_enter]/[Safe_exit] transitions. With no sink
    (the default), every site costs one branch. *)

val sink : t -> Lp_obs.Sink.t option

val engine : t -> Collector.t
(** The collector this controller runs every full-heap collection on:
    the VM retunes its slice budget and drains its pause samples
    through it. *)

val mark_wall_ns : t -> int
(** Cumulative wall-clock nanoseconds spent in mark phases — the
    numerator of the bench's mark-phase throughput. *)

val metrics : t -> Lp_obs.Metrics.t

val config : t -> Config.t

val state : t -> State_kind.t

val edge_table : t -> Edge_table.t

val gc_count : t -> int

val averted_error : t -> exn option
(** The deferred out-of-memory error, once pruning has engaged. *)

val collect :
  ?on_finalize:(Heap_obj.t -> unit) ->
  ?on_poison:(Collector.edge -> unit) ->
  ?before_sweep:(unit -> unit) ->
  t ->
  Store.t ->
  Roots.t ->
  stats:Gc_stats.t ->
  unit
(** Performs one full-heap collection in the current state's mode, then
    applies the Figure 2 state transition. [on_finalize] is invoked for
    each newly unreachable finalizable object (which is kept alive for
    this collection, Java-style), before and after pruning starts (the
    paper's implementation choice).

    [on_poison] is invoked for every reference a PRUNE collection
    poisons, before the word is overwritten — the doomed target subtree
    is still intact, which is the window the runtime's resurrection
    subsystem uses to serialize swap images. [before_sweep] runs after
    all marking and finalizer processing but before the sweep frees
    unmarked objects: the last moment the doomed closure can be read. *)

val on_allocation_failure :
  t -> Store.t -> requested:int -> [ `Retry | `Out_of_memory of exn ]
(** Called by the VM when an allocation still fails after a collection.
    [`Retry] means another collection (advancing through SELECT/PRUNE)
    may free memory; [`Out_of_memory] carries the error to throw. A
    [requested] size larger than the whole heap fast-fails — no amount
    of pruning can satisfy it. Once pruning has engaged, the thrown
    error is the recorded {!averted_error}, keeping the cause chain of
    later poisoned-access internal errors consistent with the final
    out-of-memory error. *)

val on_stale_use : t -> Store.t -> src:Heap_obj.t -> tgt:Heap_obj.t -> unit
(** Read-barrier cold-path bookkeeping (Section 4.1): when tracking is
    active and the target was stale (counter >= 2) at the moment of use,
    raise the edge type's [maxstaleuse]. The caller passes the target's
    staleness {e before} clearing it. *)

val tracking : t -> bool
(** Whether staleness tracking (and hence barrier bookkeeping) is
    active, i.e. the state is past INACTIVE. *)

val poisoned_access_error :
  t -> Store.t -> src:Heap_obj.t -> tgt_class:string -> exn
(** The [Internal_error] to throw for a program access to a poisoned
    reference, with the averted out-of-memory error as cause. *)

val last_selection : t -> (Class_registry.id * Class_registry.id * int) option
(** The most recent SELECT decision with the winning [bytesused] value
    (Figure 5's 120 bytes for B->C); survives the PRUNE collection for
    reporting. *)

val pruned_edge_types : t -> (Class_registry.id * Class_registry.id) list
(** Distinct edge types pruned so far, in first-pruned order (the
    "over 100 different reference types" measurements of Section 6). *)

val state_transitions : t -> (int * State_kind.t) list

val note_misprediction :
  t ->
  src_class:Class_registry.id ->
  tgt_class:Class_registry.id ->
  stale:int ->
  unit
(** Resurrection feedback: a program access to a pruned reference of this
    edge type was recovered from a swap image, proving the selection
    wrong. Protects the edge type in the table (raises [maxstaleuse] to
    the pruned staleness plus [stale_slack], so the same references no
    longer qualify for selection) and counts the misprediction. When the
    count within the current prune epoch (since the last PRUNE
    collection) reaches 4, the state machine enters the SAFE
    moratorium. *)

val mispredictions : t -> int
(** Total recovered mispredictions reported via {!note_misprediction}. *)

val set_liveness_prior :
  t -> (Lp_heap.Class_registry.id -> int -> Selection.prior) -> unit
(** Install the static liveness oracle, lowered to runtime ids by the
    harness (this layer never sees [lp_liveness] — only the closure).
    The prior judges one slot, given the source's class and the field
    index, and {e must be pure}. {!Selection.judge} asks it at most
    once per scanned edge; the read barrier's cold path asks it too,
    via {!note_field_read}: a [Boost] slot is one the analysis proved
    never-read ([Dead_beyond 0]), so reading it falsifies the oracle.
    Installing interns the [liveness.*] counters; with no oracle
    installed the controller's behavior and metrics registry are
    bit-for-bit those of the pre-oracle pipeline. *)

val note_field_read : t -> Store.t -> src:Heap_obj.t -> field:int -> unit
(** Conformance probe (read-barrier cold path): counts a dynamic read
    of a slot the oracle proved never-read under
    [liveness.dead_reads]. No-op without an installed oracle. *)

val liveness_vetoes : t -> int
(** Oracle vetoes that suppressed a dynamically qualifying candidate. *)

val liveness_boosts : t -> int
(** Oracle boosts that qualified an edge dynamic staleness alone would
    not have. *)

val liveness_dead_reads : t -> int
(** Dynamic reads of statically-dead slots (conformance violations of
    the oracle; 0 on a sound analysis). *)

val in_safe_mode : t -> bool

val safe_entries : t -> int
(** Times the SAFE moratorium has been entered. *)

val safe_exits_forced : t -> int
(** SAFE moratoria cut short by allocation exhaustion (pressure
    override). *)

type brain = {
  brain_classes : string list;
      (** the full class table in id order; the importing incarnation
          registers it first and must reproduce this exact name → id
          mapping *)
  brain_gc_count : int;
  brain_mispredictions : int;
  brain_epoch_mispredictions : int;
  brain_unproductive_cycles : int;
  brain_machine : State_machine.snapshot;
  brain_edges : (string * string * int) list;
      (** [(src_class, tgt_class, maxstaleuse)] for every entry with a
          non-zero [maxstaleuse], sorted by class-name pair *)
  brain_pruned_types : (string * string) list;
      (** distinct pruned edge types in first-pruned order *)
}
(** Everything the controller has {e learned} — the state a supervision
    checkpoint persists so a warm-restarted tenant keeps its pruning
    knowledge. Edge classes travel by name; [brain_classes] pins the
    name → id mapping, so classes the new incarnation registers later
    keep their ids. Byte attribution
    ([bytesused]) is per-epoch scratch and deliberately absent. *)

val export_brain : t -> brain
(** Deterministic: the same controller state always exports the same
    value (edge entries are sorted, not in hash-slot order). *)

val import_brain : t -> brain -> (unit, string) result
(** Restores an exported brain into a freshly created controller.
    First re-registers [brain_classes] in id order — names the new
    incarnation already registered (VM built-ins, workload setup) must
    land on the same ids, or the import fails. All-or-nothing for
    controller state: any [Error] (id mismatch or unresolvable edge
    class) leaves the controller untouched and the caller falls back to
    a cold boot. On [Ok] restores counters, the edge table's
    [maxstaleuse] entries, the pruned-type list and the state machine
    ({!State_machine.restore}); the metrics registry is not touched —
    counters are per-incarnation. *)
