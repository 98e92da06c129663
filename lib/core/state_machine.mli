(** The leak pruning state machine (paper Figure 2, Section 3.1).

    State changes happen at the end of every full-heap collection, driven
    by how full the heap is:

    - [Inactive] until reachable memory exceeds the [observe_threshold]
      share of the heap; once left, [Inactive] is never re-entered ("it
      permanently considers the application to be in an unexpected
      state").
    - [Observe] tracks staleness and the edge table; moves to [Select]
      when occupancy exceeds {!Config.nearly_full_threshold} (0.9).
    - A collection in [Select] chooses what to prune. With trigger
      [On_select_gc] (the paper's default, option 2) the machine then
      advances to [Prune]; with [On_exhaustion] (option 1) it waits for
      {!note_exhaustion} — the VM about to throw an out-of-memory error —
      except that once pruning has happened at least once it always
      advances directly.
    - After a [Prune] collection: back to [Observe] if the heap is no
      longer nearly full, otherwise to [Select] to pick more references.
    - [Safe] (entered via {!enter_safe} when the controller counts too
      many recovered mispredictions in one prune epoch) suspends pruning
      for {!safe_mode_collections} collections, then resumes at
      [Observe] — or [Select] if the heap is nearly full. An allocation
      exhaustion while in [Safe] forces the exit immediately: memory
      pressure overrides the moratorium.

    A forced state (Figure 7's overhead experiments) never transitions. *)

type t

val safe_mode_collections : int
(** Full-heap collections the controller stays in SAFE before resuming
    the normal state machine: 8. *)

val create : Config.t -> t

val state : t -> State_kind.t

val note_prune_performed : t -> unit

val note_exhaustion : t -> unit
(** Called when allocation still fails after a collection; under
    [On_exhaustion] this is what arms the transition to [Prune]: at
    once if this [Select] episode has run a collection, otherwise
    right after the next collection, so that one selects first. In
    [Safe] it forces an early exit to [Select] (pressure override),
    counted in {!safe_exits_forced}. *)

val enter_safe : t -> unit
(** Enter the SAFE pruning moratorium for {!safe_mode_collections}
    collections (no-op when already in [Safe] or when the state is
    forced). *)

val in_safe_mode : t -> bool

val safe_entries : t -> int
(** How many times the machine has entered [Safe]. *)

val safe_exits_forced : t -> int
(** How many SAFE moratoria were cut short by allocation exhaustion. *)

val after_gc : t -> occupancy:float -> unit
(** Apply the Figure 2 transition for a collection that ended with the
    given heap occupancy (reachable bytes / heap limit). *)

val transitions : t -> (int * State_kind.t) list
(** History of state changes as [(collection_number, new_state)] pairs in
    chronological order, for reports; collection numbers count calls to
    {!after_gc}. *)

type snapshot = {
  snap_state : State_kind.t;
  snap_pruned_once : bool;
  snap_gc_seen : int;
  snap_safe_remaining : int;
      (** SAFE collections left to serve at snapshot time (0 outside a
          moratorium) *)
  snap_safe_entries : int;
  snap_safe_exits_forced : int;
}
(** The machine state a controller checkpoint persists. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Warm-restart restore: counters and state are set from the snapshot
    (a pending SAFE moratorium resumes with its remaining collections).
    A snapshot taken in [Prune] resumes in [Select] — the selected
    reference died with the old incarnation. A forced state
    ([Config.force_state]) keeps its pin; only the counters restore. *)
