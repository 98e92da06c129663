(** The tracing logic behind {!Inc_engine}.

    The paper's mechanism (Sections 4.1–4.3) is defined over a tracing
    {e closure}, not over a particular engine. This module holds the
    closure's pieces — the edge vocabulary, the tick rule and the
    end-of-phase tick batch, corrupt-word quarantine, the one scan loop
    ({!scan}), the canonical candidate order and the sweep. *)

type edge = { src : Heap_obj.t; field : int; tgt : int }
(** A heap reference under examination: [src.fields.(field)] refers to
    the live object with identifier [tgt]. *)

type edge_action =
  | Trace  (** follow the reference normally *)
  | Defer  (** add to the candidate queue; do not trace now (SELECT) *)
  | Poison  (** invalidate the reference and do not trace it (PRUNE) *)

type mark_config = {
  set_untouched_bits : bool;
      (** set bit 0 of every scanned object-to-object reference so the
          read barrier can detect first use after this collection *)
  stale_tick_gc : int option;
      (** when [Some gc_number], apply the Section 4.1 staleness
          increment to each object marked during the closure — see
          {!buffers} for when the ticks are batched *)
  edge_filter : (edge -> edge_action) option;
      (** [None] traces everything (base collection) *)
  on_poison : (edge -> unit) option;
      (** invoked for every edge the filter resolves to [Poison], before
          the word is poisoned — the swap-image capture window *)
  events : Lp_obs.Sink.t option;
      (** observability sink for per-edge [Edge_poisoned] / [Quarantine]
          events *)
}

val base_config : mark_config
(** No untouched bits, no filter. *)

type buffers = {
  stack : Work_queue.t;
  ticks : Work_queue.t;
      (** the end-of-phase tick batch: ids of the objects a filtered
          or noted closure marked, in mark order *)
  mutable claimed_bytes : int;
      (** bytes of the objects a stale closure has claimed *)
}
(** The scratch space of one closure: the mark stack, the tick batch
    and the stale closure's byte count. Each engine instance owns one
    and reuses it for every collection, which is what keeps a
    steady-state collection's OCaml allocation constant whatever the
    heap size. Buffers are never shared between engines (several VMs
    run in one process).

    The tick batch exists because the edge filter reads target
    staleness: a filtered or noted closure queues its ticks and applies
    them in one batch after it finishes, so its decisions are a
    function of the mark-start heap alone, independent of where slices
    cut the traversal. A closure with neither a filter nor a note ticks
    each object when it claims it instead (see {!scan}); the final
    counters are the same either way, because a tick depends only on
    the object's own counter and the collection number. The batch holds
    object ids and keeps its capacity when flushed, so a reused batch
    allocates nothing, and a collection's ticks add nothing to OCaml's
    remembered set. *)

val buffers : unit -> buffers

val reset_buffers : buffers -> unit
(** Empties both buffers, keeping their capacity, and zeroes
    [claimed_bytes]; called at the start of each closure, so one
    aborted by an exception leaves nothing behind. *)

val flush_ticks : Store.t -> Gc_stats.t -> int option -> buffers -> unit
(** Applies the tick batch in mark order for collection number [gc]
    (nothing when [None]), looking each id up in the store, counting
    [stale_tick_scans] and [stale_ticks], and empties it. *)

val quarantine :
  ?events:Lp_obs.Sink.t option -> Gc_stats.t -> Word.t array -> int -> unit
(** Poisons a corrupt (dangling but non-poisoned) reference word in
    place and counts it in [Gc_stats.words_quarantined], turning any
    later program access into a structured error instead of a crash. *)

type claim =
  | In_use  (** the in-use closure: set the mark bit *)
  | Stale
      (** a stale closure: set the mark and stale-mark bits, count the
          object in [stale_closure_objects] and its bytes in
          [claimed_bytes] *)

val claim :
  Store.t ->
  buffers ->
  Gc_stats.t ->
  config:mark_config ->
  note:(edge -> unit) option ->
  claim ->
  int ->
  unit
(** [claim store b stats ~config ~note kind id] claims the live,
    unmarked object [id] the way {!scan} claims a traced target,
    for a closure's entry points (the roots, a stale closure's
    candidate target): marks it, ticks it now or queues the tick by the
    rule of {!buffers}, counts it in [stats] and pushes it on the
    mark stack. *)

val scan :
  Store.t ->
  Gc_stats.t ->
  config:mark_config ->
  note:(edge -> unit) option ->
  kind:claim ->
  buffers ->
  deferred:edge list ref ->
  limit:int ->
  int
(** The scan loop. Pops up to [limit] ids off the mark
    stack ([max_int] for no bound) and scans each object's fields in
    index order: it maintains the untouched bit, quarantines corrupt
    words, evaluates [note] (the Individual_refs byte-accounting hook)
    on every live edge, applies the edge filter, and claims every
    unmarked [Trace] target as {!claim} does. A target is checked and
    claimed through its header word ({!Store.header}) alone; no target
    handle is loaded. [Defer]red edges are
    consed onto [deferred]; [Poison] runs [on_poison], emits the event
    and poisons the word. The edge record is built only when a note or
    a filter exists. Counters are added to [stats] when the loop
    returns. Returns the number of objects scanned. *)

val canonical_candidates : edge list -> edge list
(** Sorts a candidate queue into the canonical (source id, field) order
    — a total order on edges. Stale closures claim shared
    sub-structures first-come-first-served, so candidate order affects
    byte attribution; processing in canonical order makes SELECT
    outcomes independent of traversal order and slice budget. *)

val sliced_sweep :
  Store.t ->
  stats:Gc_stats.t ->
  seg_slots:int ->
  on_segment:(unit -> unit) ->
  unit
(** The in-place sweep: frees every unmarked object, clears the GC bits
    of survivors, and records the surviving bytes in the store as its
    new live size. Slots are walked in strictly descending order by
    {!Store.sweep_range} and each dead object is freed as it is
    reached, which fixes the store's free-id recycling order. The walk
    is cut into segments of [seg_slots] slots with [on_segment] called
    after each — the points where a sliced engine records one
    [Sweep_slice] pause sample; an engine without a budget sweeps in
    one segment. *)
