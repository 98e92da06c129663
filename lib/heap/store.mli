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
    place per object. Header (whose high bits hold the size), class
    and extent are three [int array]s indexed by [id - 1]; the fields
    of every object are consecutive words of one more [int array], and
    the extent packs where they start and how many there are into one
    int. A fourth [int array] holds each slot's generation, which
    {!place} bumps each time it reuses the identifier. A {!Heap_obj.t}
    is an immediate int packing the identifier with the generation it
    was handed out at, so allocating one allocates nothing and the
    store keeps no pointer per object. A slot with no live object holds
    {!Header.free} in the header array, and liveness is read there
    first: a freed slot keeps its generation until the identifier is
    reused, so the sweep frees an object with one integer store.

    The word array grows on demand. A freed object's words stay with
    its slot, as its generation does. When the identifier is reused for an
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
    has grown to the heap's working size.

    Liveness is one masked compare of the header word: between
    collections a slot is live when it is not free and its mark
    ({!Header.mark}) is the store's mark sense. A collection's mark
    flips the sense ({!begin_mark}), and {!settle} leaves the objects
    it did not reach dead where they lie. The sweep is lazy: each
    allocation sweeps a few more slots down from where the sweep
    stopped (and on until it frees one, when the free queue is empty),
    so identifiers are handed out in the order an eager sweep from the
    top slot down would give; it stores nothing into a survivor.
    {!free}, a repacking of the word array, {!finish_sweep} and
    {!begin_mark} sweep whatever is left first. Dereferencing an identifier
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

val limit_bytes : t -> int
val set_limit_bytes : t -> int -> unit

val used_bytes : t -> int
(** Live bytes at the end of the last collection plus bytes allocated
    since, less bytes freed since. *)

val live_bytes : t -> int
(** Bytes retained by the most recent collection (0 before the first
    one). *)

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
    included: takes an identifier and [n_fields] null words, bumps the
    identifier's generation, writes the header, class,
    size and extent, and charges [size] (which must be
    [Heap_obj.size_of ~n_fields ~scalar_bytes]) to the byte totals. It
    checks nothing; the caller has established {!fits}. The words are
    the identifier's last occupant's when it had [n_fields] of them,
    else a range from the free stack of [n_fields], else the top of the
    word array; only a full word array leaves the inlined path. The
    handle it returns packs the identifier with the new generation.
    @raise Invalid_argument when every identifier below
    {!Heap_obj.max_index} is in use. *)

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
(** What {!find} returns on a miss: the handle of identifier 0 at
    generation 0, the int 0. Identifier 0 is never allocated and has no
    fields, so the sentinel is never live, never yielded by the
    iterators, and {!free} rejects it. *)

val find : t -> int -> Heap_obj.t
(** [find t id] is the live object with identifier [id], or {!sentinel}
    when there is none (id 0, negative, never allocated, or freed): the
    identifier packed with the generation of its slot. Allocates
    nothing. *)

val is_live : t -> Heap_obj.t -> bool
(** [is_live t obj] is true when [obj] itself is the live object with
    its identifier: false for a freed object, including one whose
    identifier has since been recycled (its generation no longer
    matches the slot's), and for {!sentinel}. One bounds check, a
    header load, a generation load and an integer comparison. A handle
    kept across [Heap_obj.max_generation + 1] reuses of its identifier
    would match again; see {!Heap_obj.max_generation}. *)

(** {2 Object state}

    By identifier. The accessors other than {!header} read an object's
    entry as it stands; they are meaningful only while the identifier
    is live. *)

val header : t -> int -> Header.t
(** [header t id] is the word in slot [id] as stored ({!Header.free}
    out of range). A dead object not yet swept keeps its header, so
    liveness is {!mem}'s, not this word's. *)

val set_header : t -> int -> Header.t -> unit
(** Overwrites a live object's header word, which must keep its mark. *)

val unswept : t -> int
(** The slots [1 .. unswept t] not yet swept since the last
    collection (0 when the sweep is done). *)

val mark_sense : t -> int
(** The mark live objects carry (0 or 1); while a mark is open, the
    one it writes into the objects it reaches. *)

val marked : t -> int -> bool
(** Whether slot [id] holds an object carrying {!mark_sense}: reached
    by the open mark, or live between collections. *)

val begin_mark : t -> unit
(** Finishes the sweep and flips the sense. Until {!settle} or
    {!abandon_mark} every non-free slot reads as live, and nothing may
    be allocated. *)

val mark_open : t -> bool
(** True from {!begin_mark} until {!settle} or {!abandon_mark}. *)

val abandon_mark : t -> unit
(** Closes a mark that will never be settled (a trial mark): every
    object gets back its old sense, in one loop over the header array. *)

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
(** Reclaims the object: finishes the sweep, marks the object's slot
    free and queues its identifier. Freed bytes are subtracted from
    [used_bytes].
    @raise Invalid_argument unless the object is live. *)

val iter_live : t -> (Heap_obj.t -> unit) -> unit
(** Iterates over every live object in allocation-slot order.
    Allocates nothing of its own. *)

val slot_count : t -> int
(** Number of allocation slots ever used, [next_fresh_id t - 1]. *)

val settle : t -> Gc_stats.t -> objects:int -> bytes:int -> unit
(** Closes the open mark, which left [objects] objects of [bytes]
    bytes carrying the new sense. It adds the objects and bytes the
    others hold to [stats.objects_swept] and [stats.bytes_reclaimed],
    makes the marked totals the store's object count, used and live
    bytes, makes the others read as dead, and leaves every slot to the
    lazy sweep. O(1), except in a store holding nursery objects, whose
    marked nursery bytes it sums in one loop over the header array. *)

val finish_sweep : t -> unit
(** Sweeps every slot not yet swept, freeing the dead ones in
    descending slot order; {!begin_mark} starts with it. *)

val staleness_histogram : t -> int array
(** The live objects counted by stale counter: element [k] is the number
    of live objects whose header holds [k], for [0 <= k <= ]
    {!Header.max_stale}. One loop over the header array. *)
