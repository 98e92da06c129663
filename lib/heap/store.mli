(** The object store: allocation, byte accounting and object lookup.

    The store models a bounded heap. [used_bytes] is the sum of live bytes
    retained by the last collection plus all bytes allocated since; a
    collection is due when an allocation would push [used_bytes] past the
    limit, matching the paper's description: "the next collection occurs
    after the sum of this reachable memory plus new allocation exceeds the
    available heap memory".

    Identifiers of reclaimed objects are recycled (as addresses are in a
    real heap), first freed first reused; the queue of free identifiers
    is a ring buffer, so freeing and reusing allocate nothing once it
    has grown to the heap's working size. Dereferencing an identifier
    that is not currently live raises {!Dangling_reference}; with a
    correct leak-pruning implementation this can only indicate a bug in
    the collector itself, because every program access to pruned memory
    is intercepted by the poison check first. *)

type t

exception Heap_full of { requested : int; used : int; limit : int }
(** Raised by {!alloc} when the allocation does not fit. The VM layer
    turns this into a collection and, ultimately, into the out-of-memory
    protocol of paper Section 2. *)

exception Dangling_reference of int

val create : limit_bytes:int -> t

val create_at : first_id:int -> limit_bytes:int -> t
(** Like {!create}, but the identifier space starts at [first_id]
    (must be [>= 1]). A warm-restarted VM passes the dead store's
    {!next_fresh_id} so fresh allocations can never collide with object
    ids persisted in retained swap images. *)

val limit_bytes : t -> int
val set_limit_bytes : t -> int -> unit

val used_bytes : t -> int
(** Live bytes at the last sweep plus bytes allocated since. *)

val live_bytes : t -> int
(** Bytes retained by the most recent sweep (0 before the first one). *)

val set_live_bytes : t -> int -> unit
(** Recorded by the collector at the end of each sweep. *)

val object_count : t -> int

val would_overflow : t -> int -> bool
(** [would_overflow t n] is true when allocating [n] more bytes would
    exceed the limit, after crediting bytes currently swapped out to
    disk (see {!set_swapped_out_bytes}). *)

val swapped_out_bytes : t -> int
(** Bytes belonging to live objects that a disk-offloading baseline
    (Melt/LeakSurvivor-style) currently holds on disk; they do not count
    against the heap limit. Always 0 unless a disk baseline is active. *)

val set_swapped_out_bytes : t -> int -> unit

val alloc :
  t ->
  class_id:Class_registry.id ->
  n_fields:int ->
  scalar_bytes:int ->
  finalizable:bool ->
  Heap_obj.t
(** Allocates a fresh mature object with null fields and a zero stale
    counter.
    @raise Heap_full when the object does not fit in the remaining
    headroom, or when an installed allocation fault fires (see
    {!set_alloc_fault}). *)

val set_alloc_fault : t -> (unit -> bool) option -> unit
(** Installs (or clears) a fault-injection hook consulted at the top of
    every allocation; when it returns [true] the allocation is refused
    with {!Heap_full} even if it would fit, forcing callers through
    their allocation-failure path. Used by the chaos harness; [None] by
    default. *)

val next_fresh_id : t -> int
(** The identifier the next never-before-used allocation would get
    (recycled identifiers are handed out first). Fault injection uses it
    to forge references that dangle deterministically. *)

val alloc_generation :
  t ->
  nursery:bool ->
  class_id:Class_registry.id ->
  n_fields:int ->
  scalar_bytes:int ->
  finalizable:bool ->
  Heap_obj.t
(** Like {!alloc}, choosing the generation. *)

val fits : t -> int -> bool
(** [fits t size] is true when an allocation of [size] bytes would be
    placed as it stands: no allocation fault is installed and the bytes
    fit in the headroom ({!would_overflow} is false). *)

val place :
  t ->
  nursery:bool ->
  class_id:Class_registry.id ->
  n_fields:int ->
  scalar_bytes:int ->
  finalizable:bool ->
  size:int ->
  Heap_obj.t
(** The placement step every allocation ends in, {!alloc_generation}'s
    included: takes an identifier, puts the object with null fields in
    its slot and charges [size] (which must be
    [Heap_obj.size_of ~n_fields ~scalar_bytes]) to the byte totals. It
    checks nothing; the caller has established {!fits}. Field arrays of
    up to four words are built inline, wider ones by [Array.make]. *)

val nursery_bytes : t -> int
(** Bytes currently occupied by nursery objects. *)

val promote : t -> Heap_obj.t -> unit
(** Moves a nursery object to the mature generation (clears the nursery
    bit and the nursery byte accounting; the object keeps its identity,
    as in a non-moving generational collector). *)

val sentinel : Heap_obj.t
(** The object every empty slot holds, and what {!find} returns on a
    miss. It has id 0 (never allocated) and no fields; it is never
    live, never yielded by the iterators, and {!free} rejects it.
    Compare against it with [==] only. *)

val find : t -> int -> Heap_obj.t
(** [find t id] is the live object with identifier [id], or {!sentinel}
    when there is none (id 0, negative, never allocated, or freed).
    Allocates nothing. *)

val is_live : t -> Heap_obj.t -> bool
(** [is_live t obj] is true when [obj] itself occupies its identifier's
    slot: false for a freed object, including one whose identifier has
    since been recycled, and for {!sentinel}. One bounds check, one load
    and a physical equality. *)

val get : t -> int -> Heap_obj.t
(** Dereference an object identifier.
    @raise Dangling_reference if no live object has this identifier. *)

val mem : t -> int -> bool

val free : t -> Heap_obj.t -> unit
(** Reclaims the object; used by the collector's sweep. Freed bytes are
    subtracted from [used_bytes]. *)

val iter_live : t -> (Heap_obj.t -> unit) -> unit
(** Iterates over every live object in allocation-slot order. *)

val slot_count : t -> int
(** Number of allocation slots ever used; the exclusive upper bound of
    the slot-index ranges accepted by {!iter_live_range}. *)

val iter_live_range : t -> lo:int -> hi:int -> (Heap_obj.t -> unit) -> unit
(** [iter_live_range t ~lo ~hi f] is {!iter_live} restricted to slot
    indices [lo <= i < hi]; disjoint ranges visit disjoint objects, which
    is what the parallel sweep segments rely on. *)

val iter_live_range_desc :
  t -> lo:int -> hi:int -> (Heap_obj.t -> unit) -> unit
(** {!iter_live_range} in descending slot order. [f] may {!free} the
    object it is given; the walk reads each slot once, before calling
    [f] on it. *)

val sweep_range : t -> Gc_stats.t -> lo:int -> hi:int -> int
(** [sweep_range t stats ~lo ~hi] sweeps the slots [lo <= i < hi] in
    descending order: it frees every unmarked object as it is reached,
    exactly as {!free} would, and clears the GC bits of marked ones. It
    adds the freed objects and bytes to [stats.objects_swept] and
    [stats.bytes_reclaimed] and returns the bytes of the survivors.
    [Invalid_argument] unless [0 <= lo] and [hi <= slot_count t]. *)

val staleness_histogram : t -> int array
(** The live objects counted by stale counter: element [k] is the number
    of live objects whose header holds [k], for [0 <= k <= ]
    {!Header.max_stale}. One loop over the slots, with no per-object
    closure. *)

val total_allocated_bytes : t -> int
(** Cumulative bytes ever allocated; monotone, for statistics. *)
