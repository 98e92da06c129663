(** The edge table (paper Sections 4.1 and 6.2).

    For a stale heap reference [src -> tgt] the table records the classes
    of the source and target objects. Each entry summarizes an
    equivalence class of object-to-object references and holds two
    words of data:

    - [maxstaleuse]: the all-time maximum staleness observed at the
      moment the program {e used} a reference of this type — edge types
      that go stale for a while and are then used again earn a high
      [maxstaleuse], protecting them from pruning;
    - [bytesused]: bytes attributed to this edge type by the most recent
      SELECT-state collection.

    The modelled table matches the paper's: a fixed-size table of 16,384
    slots with closed hashing (linear probing), four words per slot
    (256 KB, {!size_bytes}), and no deletion. Adding a new edge type is
    the only operation that would need global synchronization in a
    multithreaded VM and is rare; data updates tolerate races (Section
    4.5).

    The host representation costs what the table holds, not its
    capacity: the four slot arrays are allocated at the first insert
    ({!create} allocates none), and an ascending index of the occupied
    slots lets {!select_max_bytes}, {!reset_bytes},
    {!decay_max_stale_use} and {!iter} walk only the entries. Slot
    placement, probing and {!Table_full} are exactly those of the
    fixed-array table. Lookups allocate nothing. *)

type t

exception Table_full
(** Raised when a new edge type does not fit; the paper notes a
    production implementation would size the table dynamically. *)

val slots : int
(** 16,384. *)

val size_bytes : int
(** Total footprint: [slots] × 4 words × 4 bytes = 262,144. *)

val create : unit -> t
(** An empty table; the slot arrays are allocated by the first insert. *)

val record_stale_use :
  t -> src:Lp_heap.Class_registry.id -> tgt:Lp_heap.Class_registry.id -> stale:int -> unit
(** Barrier cold-path bookkeeping: raise the entry's [maxstaleuse] to
    [stale] if greater. The caller only invokes this when [stale >= 2]
    ("a value of 1 is not very stale"). Creates the entry if absent. *)

val max_stale_use : t -> src:Lp_heap.Class_registry.id -> tgt:Lp_heap.Class_registry.id -> int
(** 0 when the edge type has no entry; an empty table answers without
    probing. *)

val protect :
  t ->
  src:Lp_heap.Class_registry.id ->
  tgt:Lp_heap.Class_registry.id ->
  min_stale_use:int ->
  unit
(** Misprediction feedback: raise the entry's [maxstaleuse] to at least
    [min_stale_use], creating the entry if absent. A resurrected access
    proves the edge type was pruned wrongly; protecting it keeps the
    same references from qualifying for selection again. *)

val load_entry :
  t ->
  src:Lp_heap.Class_registry.id ->
  tgt:Lp_heap.Class_registry.id ->
  max_stale_use:int ->
  bytes_used:int ->
  unit
(** Checkpoint import: set the entry's [maxstaleuse] and [bytesused]
    outright (creating it if absent). Unlike {!protect} this may lower
    [maxstaleuse] — a restored checkpoint is authoritative. *)

val add_bytes :
  t -> src:Lp_heap.Class_registry.id -> tgt:Lp_heap.Class_registry.id -> int -> unit
(** SELECT-state attribution: add claimed bytes to the entry's
    [bytesused], creating the entry if absent. *)

val bytes_used : t -> src:Lp_heap.Class_registry.id -> tgt:Lp_heap.Class_registry.id -> int
(** 0 when the edge type has no entry, as for {!max_stale_use}. *)

val select_max_bytes :
  t -> (Lp_heap.Class_registry.id * Lp_heap.Class_registry.id * int) option
(** The entry with the greatest non-zero [bytesused]; ties break on the
    lexicographically least [(src, tgt)] class pair, which — unlike slot
    order — does not depend on the order entries were first inserted, so
    the winner is identical however the byte accounting was scheduled. *)

val reset_bytes : t -> unit
(** Zeroes every entry's [bytesused]; run at the end of each SELECT
    collection. *)

val decay_max_stale_use : t -> unit
(** Halves every entry's [maxstaleuse] (rounding down). The paper
    proposes periodic decay as future work, to tolerate leaks like
    JbbMod whose phased early behaviour permanently protects an edge
    type ("periodically decaying each reference type's maxstaleuse
    value to account for possible phased behavior", Section 6). *)

val entry_count : t -> int
(** Number of distinct edge types ever recorded (Table 2's last
    column; the table never shrinks). *)

val iter :
  t ->
  (src:Lp_heap.Class_registry.id ->
  tgt:Lp_heap.Class_registry.id ->
  max_stale_use:int ->
  bytes_used:int ->
  unit) ->
  unit
(** Visits every entry in ascending slot order. *)
