(** The heap verifier: one pass over a VM between collections that
    checks every invariant leak pruning must keep, and reports the
    first one broken.

    The chaos harness and every fleet tenant run it in strict mode
    after each collection, and the fleet runs it again as a restarted
    tenant's readiness probe and before the crash-storm breaker
    closes. The paper's own Section 3.2 reports, the out-of-memory
    warning and the pruned data structures, reach users through the
    [report] callback of {!Lp_core.Config.t} and through the trace's
    [Prune_decision] events. *)

val heap_check : ?strict:bool -> Vm.t -> (unit, string) result
(** Internal consistency check, for tests and the chaos harness: every
    non-null, non-poisoned reference in the live heap must point to a
    live object; byte accounting must agree with a fresh traversal; no
    object may carry leftover GC mark bits between collections; any
    poisoned word must be explained by pruning, quarantine, an injected
    corruption or resurrection-time repoisoning; recorded pruned edge
    types imply poisoned references, which imply a recorded averted
    error; every disk-resident identifier must be live with matching
    size and closed byte totals; every remembered-set source must be
    live with its field in bounds.

    Resurrection invariants: every retained swap image must be stored
    under the object identifier it records and must decode cleanly
    unless a [Swap]-site fault was actually injected this run; image
    byte and count accounting must close against the swap store; and a
    VM that never enabled resurrection must count zero resurrections.

    [strict] additionally requires the poisoned-word {e count} not to
    exceed the sum of the recorded causes — valid only when the program
    never {!Mutator.arraycopy}s poisoned words (copies duplicate poison
    without a counter increment). Default [false]. *)
