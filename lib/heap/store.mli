(** The object store: allocation, byte accounting, object lookup and
    the object state.

    The store models a bounded heap. [used_bytes] is the sum of live bytes
    retained by the last collection plus all bytes allocated since; a
    collection is due when an allocation would push [used_bytes] past the
    limit, matching the paper's description: "the next collection occurs
    after the sum of this reachable memory plus new allocation exceeds the
    available heap memory".

    Each object's header, class, size and reference fields are held
    here, as the Jikes RVM object model keeps a header word at a fixed
    place per object. Header, class, size and extent are four
    [int array]s indexed by [id - 1]; the fields of every object are
    consecutive words of one more [int array], and the extent packs
    where they start and how many there are into one int. A
    {!Heap_obj.t} is only the handle (the identity), kept in a sixth,
    parallel array. A slot with no live object holds {!Header.free} in
    the header array, and liveness is read there first: a freed slot
    keeps its old handle until the identifier is reused, so the sweep
    frees an object with one integer store and no pointer store.

    The word array grows on demand. A freed object's words stay with
    its slot, as its handle does. When the identifier is reused for an
    object of the same field count, the new object takes them;
    otherwise they go on a stack of free ranges for their count, and
    the new object takes a range from its own count's stack or words
    from the top of the array. When the top is full, every live
    object's words are repacked into a fresh array a quarter larger
    than the words live objects own, and of at least [limit_bytes / 16]
    words (never a smaller one), which returns every other range to the
    top. Where an object's words sit
    is not observable: identifiers, traversal order and free-id
    recycling do not depend on it.

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
  finalizable:bool ->
  size:int ->
  Heap_obj.t
(** The placement step every allocation ends in, {!alloc_generation}'s
    included: takes an identifier and [n_fields] null words, puts a
    fresh handle in the identifier's slot, writes the header, class,
    size and extent, and charges [size] (which must be
    [Heap_obj.size_of ~n_fields ~scalar_bytes]) to the byte totals. It
    checks nothing; the caller has established {!fits}. The words are
    the identifier's last occupant's when it had [n_fields] of them,
    else a range from the free stack of [n_fields], else the top of the
    word array; only a full word array leaves the inlined path. *)

val nursery_bytes : t -> int
(** Bytes currently occupied by nursery objects. *)

val promote : t -> int -> unit
(** [promote t id] moves a live nursery object to the mature generation
    (clears the nursery bit and the nursery byte accounting; the object
    keeps its identity, as in a non-moving generational collector). *)

val promote_all : t -> unit
(** Promotes every live nursery object, in one loop over the header
    array. *)

val sentinel : Heap_obj.t
(** The handle of a slot never used, and what {!find} returns on a
    miss. It has id 0 (never allocated) and no fields; it is never
    live, never yielded by the iterators, and {!free} rejects it.
    Compare against it with [==] only. *)

val find : t -> int -> Heap_obj.t
(** [find t id] is the live object with identifier [id], or {!sentinel}
    when there is none (id 0, negative, never allocated, or freed).
    Allocates nothing. *)

val is_live : t -> Heap_obj.t -> bool
(** [is_live t obj] is true when [obj] itself is the live object with
    its identifier: false for a freed object, including one whose
    identifier has since been recycled, and for {!sentinel}. One bounds
    check, a header load and a physical equality with the slot's
    handle. *)

(** {2 Object state}

    By identifier. The accessors other than {!header} read an object's
    entry as it stands; they are meaningful only while the identifier
    is live. *)

val header : t -> int -> Header.t
(** [header t id] is the header word of the live object [id], or
    {!Header.free} when there is none (freed, never allocated or out of
    range). One bounds check and one load. *)

val set_header : t -> int -> Header.t -> unit
(** Overwrites a live object's header word. *)

val class_of : t -> int -> Class_registry.id

val size_bytes : t -> int -> int
(** The object's footprint, as charged to the heap. *)

val scalar_bytes : t -> Heap_obj.t -> int
(** The non-reference payload: the footprint less the header and the
    reference fields. *)

val stale : t -> int -> int
(** The stale counter of the object's header. *)

val set_stale : t -> int -> int -> unit

(** {2 Reference fields}

    By identifier and field index. The index is checked against the
    object's field count ([Invalid_argument "index out of bounds"]);
    liveness is not checked, and a freed object's words may already
    belong to another object. *)

val n_fields : t -> int -> int
(** The number of reference fields of the object. *)

val field : t -> int -> int -> Word.t
(** [field t id k] is the word in field [k] of object [id]. *)

val set_field : t -> int -> int -> Word.t -> unit

val clear_fields : t -> int -> unit
(** Nulls every field of the object. *)

val blit_fields :
  t -> src:int -> src_pos:int -> dst:int -> dst_pos:int -> len:int -> unit
(** Copies [len] fields of object [src] from [src_pos] to fields of
    object [dst] from [dst_pos], like [Array.blit] (overlapping ranges
    of one object included); [Invalid_argument "Array.blit"] when a
    range is out of bounds. *)

val words : t -> Word.t array
(** The word array itself, for the collector's scan: object [id]'s
    fields are the [extent_count e] words from [extent_offset e], where
    [e = extent t id]. An allocation may replace the array, so the
    value is good only until the next allocation into the store. *)

val extent : t -> int -> int
(** Object [id]'s extent: where its fields start in {!words} and how
    many there are, in one int. *)

val extent_offset : int -> int

val extent_count : int -> int

val word_capacity : t -> int
(** The length of the word array. *)

val get : t -> int -> Heap_obj.t
(** Dereference an object identifier.
    @raise Dangling_reference if no live object has this identifier. *)

val mem : t -> int -> bool

val free : t -> Heap_obj.t -> unit
(** Reclaims the object: marks its slot free and queues its identifier.
    Freed bytes are subtracted from [used_bytes].
    @raise Invalid_argument unless the object is live. *)

val iter_live : t -> (Heap_obj.t -> unit) -> unit
(** Iterates over every live object in allocation-slot order. *)

val slot_count : t -> int
(** Number of allocation slots ever used, [next_fresh_id t - 1]; the
    exclusive upper bound of the slot-index ranges accepted by
    {!sweep_range}. *)

val sweep_range : t -> Gc_stats.t -> lo:int -> hi:int -> int
(** [sweep_range t stats ~lo ~hi] sweeps the slots [lo <= i < hi] in
    descending order: it frees every unmarked object as it is reached,
    exactly as {!free} would, and clears the GC bits of marked ones.
    It reads only the header and size arrays, and a freed slot costs
    one header store and the queueing of its identifier: its handle and
    its words stay with the slot until the identifier is reused. It
    adds the freed objects and bytes to [stats.objects_swept] and
    [stats.bytes_reclaimed] and returns the bytes of the survivors.
    [Invalid_argument] unless [0 <= lo] and [hi <= slot_count t]. *)

val staleness_histogram : t -> int array
(** The live objects counted by stale counter: element [k] is the number
    of live objects whose header holds [k], for [0 <= k <= ]
    {!Header.max_stale}. One loop over the header array. *)

val total_allocated_bytes : t -> int
(** Cumulative bytes ever allocated; monotone, for statistics. *)
