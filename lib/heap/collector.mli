(** The collector's shared vocabulary and its finalizer pass.

    The paper piggybacks leak pruning on MMTk's mark-sweep collector by
    splitting the usual transitive closure into an {e in-use} closure
    and a {e stale} closure (Section 4.2). The closures and the sweep
    are phases of a {!Trace_engine} ({!Inc_engine}); this module holds
    what the engine and the controller share: the edge vocabulary,
    re-exported from {!Trace_common} (the types are equal, so filters
    written against either module interoperate), and
    {!resurrect_finalizables}, which runs between mark and sweep. *)

type edge = Trace_common.edge = { src : Heap_obj.t; field : int; tgt : int }
(** A heap reference under examination: [src.fields.(field)] refers to
    the live object with identifier [tgt]; its header, class and size
    are read from the {!Store}. *)

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
          pay for it. A filtered or noted closure applies the ticks in
          one batch after it finishes rather than at each mark; see
          {!Trace_common.tick_batch} for the rule *)
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

val resurrect_finalizables :
  Store.t -> stats:Gc_stats.t -> on_finalize:(Heap_obj.t -> unit) -> unit
(** Finds unreachable objects whose finalizer has not run, invokes
    [on_finalize], marks them and their referents live for this collection
    (the finalizer may access them), and records that the finalizer ran so
    the object is ordinarily reclaimed by the next collection. *)
