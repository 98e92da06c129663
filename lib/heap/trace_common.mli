(** Tracing logic shared by every {!Trace_engine}.

    The paper's mechanism (Sections 4.1–4.3) is defined over a tracing
    {e closure}, not over a particular engine. This module holds the
    engine-independent pieces — the edge vocabulary, the per-field scan,
    the end-of-phase staleness-tick batching, corrupt-word quarantine and
    the canonical candidate order — so the single-domain engine
    ({!Inc_engine}) and the parallel engine ([Lp_par.Par_engine])
    cannot drift apart. *)

type edge = { src : Heap_obj.t; field : int; tgt : Heap_obj.t }
(** A heap reference under examination: [src.fields.(field)] refers to
    [tgt]. *)

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
          {!tick_batch} for why the ticks are batched *)
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

val tick : Gc_stats.t -> int option -> Heap_obj.t -> unit
(** The bare staleness tick (no marking). *)

type tick_batch
(** Accumulates the staleness ticks of a filtered closure so they can be
    applied in one batch after the closure finishes. The edge filter
    reads target staleness; batch application keeps its decisions a
    function of the mark-start heap alone, independent of traversal
    order (DFS, sliced DFS, or BFS rounds). The final counters are
    unchanged because a tick depends only on the object's own counter
    and the collection number. Every engine defers through this one
    helper. A batch holds object ids and keeps its capacity when
    flushed, so a reused batch allocates nothing, and a collection's
    ticks add nothing to OCaml's remembered set. *)

val tick_batch : unit -> tick_batch

val defer_tick : tick_batch -> config:mark_config -> Heap_obj.t -> unit
(** Enqueues [obj] for the end-of-phase tick iff [config.stale_tick_gc]
    is set; call at the point the object is marked. *)

val flush_ticks : Store.t -> Gc_stats.t -> int option -> tick_batch -> unit
(** Applies the batch in mark order, looking each id up in the store,
    and empties it. *)

val clear_ticks : tick_batch -> unit
(** Drops the batch's pending ticks unapplied, keeping its capacity; an
    engine calls it before a closure so one aborted by an exception
    leaves nothing behind. *)

type buffers = { stack : Work_queue.t; ticks : tick_batch }
(** The scratch space of one closure: the mark stack and the tick
    batch. Each engine instance owns one and reuses it for every
    collection, which is what keeps a steady-state collection's OCaml
    allocation constant whatever the heap size. Buffers are never
    shared between engines (several VMs, and the parallel engine's
    domains, run in one process). *)

val buffers : unit -> buffers

val reset_buffers : buffers -> unit
(** Empties both buffers, keeping their capacity; called at the start
    of each closure (see {!clear_ticks}). *)

val quarantine :
  ?events:Lp_obs.Sink.t option -> Gc_stats.t -> Word.t array -> int -> unit
(** Poisons a corrupt (dangling but non-poisoned) reference word in
    place and counts it in [Gc_stats.words_quarantined], turning any
    later program access into a structured error instead of a crash. *)

val scan_field :
  Store.t ->
  Gc_stats.t ->
  config:mark_config ->
  note:(edge -> unit) option ->
  on_trace:(Heap_obj.t -> unit) ->
  deferred:edge list ref ->
  Heap_obj.t ->
  int ->
  unit
(** Scans one field: maintains the untouched bit, quarantines corrupt
    words, evaluates [note] (the Individual_refs byte-accounting hook)
    on every live edge, applies the edge filter and dispatches the
    action. [on_trace] is invoked for unmarked [Trace] targets; the
    calling engine marks, tick-defers and queues there. *)

val scan_object :
  Store.t ->
  Gc_stats.t ->
  config:mark_config ->
  note:(edge -> unit) option ->
  on_trace:(Heap_obj.t -> unit) ->
  deferred:edge list ref ->
  Heap_obj.t ->
  unit
(** {!scan_field} over every field of the object, in index order. *)

val canonical_candidates : edge list -> edge list
(** Sorts a candidate queue into the canonical (source id, field) order
    — a total order on edges. Stale closures claim shared
    sub-structures first-come-first-served, so candidate order affects
    byte attribution; processing in canonical order makes SELECT
    outcomes independent of traversal strategy, slice budget and domain
    count. *)

val sliced_sweep :
  Store.t ->
  stats:Gc_stats.t ->
  seg_slots:int ->
  on_segment:(unit -> unit) ->
  unit
(** The in-place sweep: frees every unmarked object, clears the GC bits
    of survivors, and records the surviving bytes in the store as its
    new live size. Slots are walked in strictly descending order and
    each dead object is freed as it is reached, which fixes the store's
    free-id recycling order. The walk is cut into segments of
    [seg_slots] slots with [on_segment] called after each — the points
    where a sliced engine records one [Sweep_slice] pause sample; an
    engine without a budget sweeps in one segment. *)

val note_fn :
  ?edge_note:(edge -> (int * int * int) option) ->
  ?apply_note:(int * int * int -> unit) ->
  unit ->
  (edge -> unit) option
(** Fuses the split pure-note/apply-note pair into the [note] hook of
    {!scan_field}, for engines that evaluate and apply at the same
    program point ({!Inc_engine}). *)
