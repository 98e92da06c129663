(** The single-domain tracing engine, with or without a pause bound.

    The paper piggybacks leak pruning on MMTk's mark-sweep collector by
    splitting the usual transitive closure into an {e in-use} closure
    and a {e stale} closure (Section 4.2). This engine runs both as a
    DFS over an engine-owned {!Work_queue} with the one scan loop
    {!Trace_common.scan}; the controller composes the phases per
    collection mode through the {!Trace_engine} view:

    - base/observe collection: mark with no filter, then
      {!Collector.resurrect_finalizables}, then sweep;
    - SELECT collection: mark with a filter deferring candidate
      references, then the stale closure per candidate, then finalizers
      and sweep;
    - PRUNE collection: mark with a filter poisoning selected
      references, then finalizers and sweep.

    With no slice budget (named ["seq"]) every phase runs to completion
    as one pause: {!Trace_engine.t.take_pauses} returns [[]], so the VM
    accounts each collection as one [Monolithic] sample.

    With a budget (named ["inc<b>"]) the closures yield every
    [slice_budget] scanned objects and the sweep runs through
    {!Trace_common.sliced_sweep} in segments of [slice_budget] slots,
    so no phase of a collection pauses for longer than one budgeted
    slice. Marked set, deferred candidate order, staleness ticks, free
    order and every {!Gc_stats} counter are bit-identical with and
    without a budget by construction — only the pause profile changes.
    Each slice lands as its own phase-tagged pause sample
    ([Mark_slice] for mark and stale-closure slices, [Sweep_slice] per
    sweep segment), and no mark slice ever scans more than
    [slice_budget] objects ({!Trace_engine.t.max_slice_work} proves
    it). *)

type t

val create : ?slice_budget:int -> unit -> t
(** [slice_budget] is the maximum number of objects one mark slice may
    scan, and the sweep segment size in slots ([>= 1];
    [Invalid_argument] otherwise). Without it each phase is one pause. *)

val engine : t -> Trace_engine.t
(** The {!Trace_engine} view. *)

val slice_budget : t -> int option

val set_slice_budget : t -> int -> unit
(** Retunes the budget between collections (the pause-SLO autopilot's
    actuator). Outcome-neutral by construction — the budget only moves
    slice boundaries. [Invalid_argument] if the budget is [< 1] or the
    engine was created without a budget. *)

val slices : t -> int
(** Mark slices run so far, across all collections. *)
