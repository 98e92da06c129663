exception Heap_full of { requested : int; used : int; limit : int }

exception Dangling_reference of int

(* The handle of id 0 at generation 0, the int 0. Id 0 is never
   allocated, so no slot index maps to it and [is_live sentinel] is
   false. Callers only ever get it as [find]'s miss. *)
let sentinel = Heap_obj.pack ~index:0 ~generation:0

(* The object state lives in four parallel int arrays indexed by
   [id - 1], all of one length. [headers] decides liveness: a free slot
   holds [Header.free] there. A live object's header also holds its
   size. [gens] holds the generation of the slot's last occupant (-1 for
   a slot never used), which [place] bumps when it reuses the id, so a
   live object's handle is its id packed with [gens.(id - 1)] and
   freeing writes only the header. [classes] and [extents] hold the
   last occupant's values.

   Every object's reference fields are consecutive words of the one
   [words] array. Its extent packs where they start and how many there
   are into one int, [offset lsl count_bits lor count], so a reader
   finds both with one load. Words below [top] have been handed out;
   those at or above it are all [Word.null]. A freed slot keeps its
   range, as it keeps its generation, so freeing touches neither the
   words nor the extent. When [place] reuses the id for an object of
   the same field count, the range goes with it; otherwise the range is
   pushed on the stack of free ranges of its count ([free_ranges.(n)],
   [free_lens.(n)] deep), and the new object takes the top range of its
   own count's stack, or words from [top].

   Slot [i] is live iff [headers.(i) land live_mask = live_want]: not
   free (negative) and, between collections, carrying the mark [sense].
   [begin_mark] flips the sense and narrows the mask to the sign bit
   until [settle], after which the objects the mark did not reach are
   dead where they lie. [sweep_range] frees them from the top down, a
   few slots per allocation ([fresh_id]); [unswept] only paces it. *)
type t = {
  mutable gens : int array;
  mutable headers : int array;
  mutable classes : int array;
  mutable extents : int array;
  mutable words : Word.t array;
  mutable top : int;
  mutable free_ranges : int array array;
      (* per field count, the offsets of its free ranges; longer than
         any object's count *)
  mutable free_lens : int array;  (* stack depths, as long as [free_ranges] *)
  mutable next_id : int;
  mutable free_ids : int array;
      (* ring buffer of recycled ids, FIFO: [free_len] ids from
         [free_head], wrapping; grown by doubling, never shrunk *)
  mutable free_head : int;
  mutable free_len : int;
  mutable unswept : int;
      (* the sweep has not reached slots [0, unswept) *)
  mutable sense : int;
  mutable live_mask : int;
  mutable live_want : int;
  mutable limit : int;
  mutable used : int;
  mutable live : int;
  mutable count : int;
  mutable swapped_out : int;
  mutable nursery : int;
  mutable alloc_fault : (unit -> bool) option;
}

(* An extent's low [count_bits] bits hold the field count and the rest
   the offset. The word array never reaches [1 lsl count_bits] words
   (see [refill]), so neither part can overflow its bits. *)
let count_bits = 31

let count_mask = (1 lsl count_bits) - 1

let[@inline] extent_count e = e land count_mask

let[@inline] extent_offset e = e lsr count_bits

(* The slot arrays start at one slot per [bytes_per_slot] bytes of heap
   limit, the size of a small object, within [min_slots, max_slots].
   Growing means copying all four arrays and leaving the old ones to
   OCaml's GC, so a store that fills its heap with small objects should
   grow them once or not at all. The word array starts at
   [words_per_slot] words per slot, small enough that creating a store
   does not touch much fresh memory, and grows on demand (see
   [refill]). *)
let bytes_per_slot = 64

let min_slots = 1024

let max_slots = 1 lsl 16

let words_per_slot = 2

(* The liveness mask between collections; a mark narrows it to the
   sign bit, [min_int]. *)
let settled_mask = Header.with_mark min_int 1

let create ~limit_bytes =
  if limit_bytes <= 0 then invalid_arg "Store.create";
  let cap = min max_slots (max min_slots (limit_bytes / bytes_per_slot)) in
  {
    gens = Array.make cap (-1);
    headers = Array.make cap Header.free;
    classes = Array.make cap 0;
    extents = Array.make cap 0;
    words = Array.make (words_per_slot * cap) Word.null;
    top = 0;
    free_ranges = Array.make 8 [||];
    free_lens = Array.make 8 0;
    next_id = 1;
    free_ids = Array.make 64 0;
    free_head = 0;
    free_len = 0;
    unswept = 0;
    sense = 0;
    live_mask = settled_mask;
    live_want = 0;
    limit = limit_bytes;
    used = 0;
    live = 0;
    count = 0;
    swapped_out = 0;
    nursery = 0;
    alloc_fault = None;
  }

let set_alloc_fault t f = t.alloc_fault <- f

let limit_bytes t = t.limit

let set_limit_bytes t n =
  if n <= 0 then invalid_arg "Store.set_limit_bytes";
  t.limit <- n

let used_bytes t = t.used

let live_bytes t = t.live

let object_count t = t.count

let swapped_out_bytes t = t.swapped_out

let set_swapped_out_bytes t n =
  if n < 0 then invalid_arg "Store.set_swapped_out_bytes";
  t.swapped_out <- n

let would_overflow t n = t.used - t.swapped_out + n > t.limit

(* Growth stays out of line so the capacity check inlines into
   [fresh_id]. The four arrays grow together, by half: a heap whose
   slot count settles just past a power of two would otherwise carry
   nearly twice the slots it uses, in four arrays. An id must fit a
   handle's index bits. *)
let[@inline never] grow_slots t id =
  if id > Heap_obj.max_index then invalid_arg "Store: identifiers exhausted";
  let n = Array.length t.gens in
  let cap = max (n + (n / 2)) id in
  let grow a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.gens <- grow t.gens (-1);
  t.headers <- grow t.headers Header.free;
  t.classes <- grow t.classes 0;
  t.extents <- grow t.extents 0

let[@inline] ensure_capacity t id =
  if id > Array.length t.gens then grow_slots t id

let[@inline never] grow_free_ids t =
  let cap = Array.length t.free_ids in
  let ids = Array.make (2 * cap) 0 in
  let first = cap - t.free_head in
  Array.blit t.free_ids t.free_head ids 0 first;
  Array.blit t.free_ids 0 ids first (cap - first);
  t.free_ids <- ids;
  t.free_head <- 0

let[@inline] push_free_id t id =
  if t.free_len = Array.length t.free_ids then grow_free_ids t;
  let tail = t.free_head + t.free_len in
  let cap = Array.length t.free_ids in
  t.free_ids.(if tail >= cap then tail - cap else tail) <- id;
  t.free_len <- t.free_len + 1

(* The sweep: one loop over the header array, from the top of the
   unswept range down, touching no generation and no survivor. A dead
   object (the other sense) is freed as it is reached, so its id joins
   the free queue in descending slot order, the order [free] would
   give. A freed slot gets the free marker and keeps its generation and
   its range. It sweeps [slots] slots,
   and on until it has queued an id if the queue is empty, or down to
   slot 0. The byte and object totals were settled when the collection
   ended, so it writes none. Out of line: [fresh_id] only tests for
   it. *)
let[@inline never] sweep_range t ~slots =
  let headers = t.headers and sense = t.sense in
  let stop = t.unswept - slots in
  let i = ref (t.unswept - 1) in
  while !i >= 0 && (!i >= stop || t.free_len = 0) do
    let h = Array.unsafe_get headers !i in
    if (not (Header.is_free h)) && Header.mark h <> sense then begin
      Array.unsafe_set headers !i Header.free;
      push_free_id t (!i + 1)
    end;
    decr i
  done;
  t.unswept <- !i + 1

let[@inline] finish_sweep t = if t.unswept > 0 then sweep_range t ~slots:max_int

(* The slots each allocation sweeps while a range is unswept. An
   allocation takes one id, and a sweep step visits this many slots,
   so the sweep runs far ahead of allocation: it leaves little for the
   next collection's mark to finish inside the pause, even in a heap
   whose queue never empties. A step costs a bounded few dozen header
   loads. *)
let sweep_step = 32

(* Recycled ids first, else a never-used id, after a sweep step when a
   range is unswept; the ids the step frees join the queue behind the
   others. *)
let[@inline] fresh_id t =
  if t.unswept > 0 then sweep_range t ~slots:sweep_step;
  if t.free_len > 0 then begin
    let id = t.free_ids.(t.free_head) in
    let head = t.free_head + 1 in
    t.free_head <- (if head = Array.length t.free_ids then 0 else head);
    t.free_len <- t.free_len - 1;
    id
  end
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    ensure_capacity t id;
    id
  end

(* Makes room for a range of [n] words: a free-range stack for [n] if
   there is none yet, and, when the bump region is too short, a
   repacking. Repacking copies every live object's words, in id order,
   into a fresh array a quarter larger than the words live objects own
   with the request, and at least twice the starting words per slot of
   the limit's slots (a store that outgrows its starting array is
   likely to need that much, and one growth is cheaper in peak memory
   than several); never a smaller one. Free slots lose their ranges
   (their extents become 0) and every stack is emptied. So the array
   holds at most the largest of its starting size, [limit / 16] words
   and a quarter more than the words live objects own with the
   request, which are fewer than [limit / Heap_obj.word_size]. A
   repacking first finishes the sweep, so dead objects' words are not
   copied. Out of line: the allocation fast path only tests for it. *)
let[@inline never] refill t n =
  let lens = t.free_lens in
  if n >= Array.length lens then begin
    let len = max (n + 1) (2 * Array.length lens) in
    let ranges = Array.make len [||] and lens' = Array.make len 0 in
    Array.blit t.free_ranges 0 ranges 0 (Array.length lens);
    Array.blit lens 0 lens' 0 (Array.length lens);
    t.free_ranges <- ranges;
    t.free_lens <- lens'
  end;
  if t.top + n > Array.length t.words then begin
    finish_sweep t;
    let live = ref n in
    for i = 0 to t.next_id - 2 do
      if not (Header.is_free t.headers.(i)) then
        live := !live + extent_count t.extents.(i)
    done;
    let cap =
      max (Array.length t.words)
        (max (!live + (!live / 4)) (2 * words_per_slot * (t.limit / bytes_per_slot)))
    in
    if cap > count_mask then invalid_arg "Store: word array too large";
    let old = t.words and words = Array.make cap Word.null in
    let top = ref 0 in
    for i = 0 to t.next_id - 2 do
      let e = t.extents.(i) in
      if Header.is_free t.headers.(i) then t.extents.(i) <- 0
      else begin
        let k = extent_count e in
        Array.blit old (extent_offset e) words !top k;
        t.extents.(i) <- (!top lsl count_bits) lor k;
        top := !top + k
      end
    done;
    t.words <- words;
    t.top <- !top;
    Array.fill t.free_lens 0 (Array.length t.free_lens) 0
  end

let[@inline never] grow_free_ranges t n =
  let ranges = t.free_ranges.(n) in
  let ranges' = Array.make (max 16 (2 * Array.length ranges)) 0 in
  Array.blit ranges 0 ranges' 0 (Array.length ranges);
  t.free_ranges.(n) <- ranges'

(* Pushes the range of extent [e] on the free stack of its count. Every
   count a range was taken for indexes the stacks, which [refill] grew
   for it. *)
let[@inline] release_range t e =
  let n = extent_count e in
  if n > 0 then begin
    let depth = Array.unsafe_get t.free_lens n in
    if depth = Array.length (Array.unsafe_get t.free_ranges n) then
      grow_free_ranges t n;
    Array.unsafe_set (Array.unsafe_get t.free_ranges n) depth (extent_offset e);
    Array.unsafe_set t.free_lens n (depth + 1)
  end

let[@inline] null_words words off n =
  for j = off to off + n - 1 do
    Array.unsafe_set words j Word.null
  done

(* The extent of a range of [n] null words for a slot whose last
   occupant's extent is [e]: that range when it has [n] words; else the
   top range of [n]'s free stack, or the bottom of the bump region, the
   old range going on its own stack. *)
let[@inline] take_range t e n =
  if extent_count e = n then begin
    null_words t.words (extent_offset e) n;
    e
  end
  else begin
    release_range t e;
    if
      n >= Array.length t.free_lens
      || (Array.unsafe_get t.free_lens n = 0 && t.top + n > Array.length t.words)
    then refill t n;
    let depth = Array.unsafe_get t.free_lens n in
    let off =
      if depth > 0 then begin
        Array.unsafe_set t.free_lens n (depth - 1);
        let off = Array.unsafe_get (Array.unsafe_get t.free_ranges n) (depth - 1) in
        null_words t.words off n;
        off
      end
      else begin
        let off = t.top in
        t.top <- off + n;
        off
      end
    in
    (off lsl count_bits) lor n
  end

let[@inline] live_at t i =
  Array.unsafe_get t.headers i land t.live_mask = t.live_want

let[@inline] fits t size = t.alloc_fault == None && not (would_overflow t size)

(* The placement step every allocation ends in: an id, the slot's next
   generation, a range of null words, the header, class, size and
   extent, and the byte accounting. [fresh_id] makes sure the id's slot
   exists, so the stores into it are unchecked. *)
let[@inline] place t ~nursery ~class_id ~n_fields ~finalizable ~size =
  let id = fresh_id t in
  let i = id - 1 in
  let extent = take_range t (Array.unsafe_get t.extents i) n_fields in
  let header = Header.with_mark (Header.of_size size) t.sense in
  let header = if finalizable then Header.set_finalizable header else header in
  let header = if nursery then Header.set_in_nursery header else header in
  let generation = Heap_obj.next_generation (Array.unsafe_get t.gens i) in
  Array.unsafe_set t.gens i generation;
  Array.unsafe_set t.headers i header;
  Array.unsafe_set t.classes i class_id;
  Array.unsafe_set t.extents i extent;
  t.used <- t.used + size;
  t.count <- t.count + 1;
  if nursery then t.nursery <- t.nursery + size;
  Heap_obj.pack ~index:id ~generation

let alloc_generation t ~nursery ~class_id ~n_fields ~scalar_bytes ~finalizable =
  let size = Heap_obj.size_of ~n_fields ~scalar_bytes in
  (match t.alloc_fault with
  | Some refuse when refuse () ->
    raise (Heap_full { requested = size; used = t.used; limit = t.limit })
  | Some _ | None -> ());
  if would_overflow t size then
    raise (Heap_full { requested = size; used = t.used; limit = t.limit });
  place t ~nursery ~class_id ~n_fields ~finalizable ~size

let alloc t ~class_id ~n_fields ~scalar_bytes ~finalizable =
  alloc_generation t ~nursery:false ~class_id ~n_fields ~scalar_bytes ~finalizable

(* [0 <= i < len] as one sign test: [i lor (len - 1 - i)] is negative
   exactly when one of the two differences is. The lookups below check
   the bound on [headers] this way and then load from it, and from the
   parallel [gens], without a second check. *)
let[@inline] in_bounds a i = i lor (Array.length a - 1 - i) >= 0

let[@inline] header t id =
  let i = id - 1 in
  if in_bounds t.headers i then Array.unsafe_get t.headers i else Header.free

let[@inline] find t id =
  let i = id - 1 in
  if in_bounds t.headers i && live_at t i then
    Heap_obj.pack ~index:id ~generation:(Array.unsafe_get t.gens i)
  else sentinel

let[@inline] is_live t obj =
  let i = Heap_obj.index obj - 1 in
  in_bounds t.headers i && live_at t i
  && Array.unsafe_get t.gens i = Heap_obj.generation obj

let[@inline never] dangling id = raise (Dangling_reference id)

let[@inline] get t id =
  let obj = find t id in
  if obj == sentinel then dangling id else obj

let mem t id =
  let i = id - 1 in
  in_bounds t.headers i && live_at t i

let[@inline] set_header t id h = t.headers.(id - 1) <- h

let unswept t = t.unswept

let[@inline] mark_sense t = t.sense

let marked t id = header t id land settled_mask = t.sense

let mark_open t = t.live_mask = min_int

(* A mark begins once the last one's sweep is done: a slot that sweep
   left would carry the value this mark writes. *)
let begin_mark t =
  if mark_open t then invalid_arg "Store.begin_mark: a mark is open";
  finish_sweep t;
  t.sense <- 1 - t.sense;
  t.live_mask <- min_int;
  t.live_want <- 0

let abandon_mark t =
  if not (mark_open t) then invalid_arg "Store.abandon_mark: no mark is open";
  let headers = t.headers and sense = 1 - t.sense in
  for i = 0 to t.next_id - 2 do
    let h = Array.unsafe_get headers i in
    if h >= 0 then Array.unsafe_set headers i (Header.with_mark h sense)
  done;
  t.sense <- sense;
  t.live_mask <- settled_mask;
  t.live_want <- sense

let[@inline] class_of t id = t.classes.(id - 1)

let[@inline] size_bytes t id = Header.size t.headers.(id - 1)

let[@inline] n_fields t id = extent_count t.extents.(id - 1)

let scalar_bytes t obj =
  let id = Heap_obj.index obj in
  size_bytes t id - Heap_obj.header_bytes - (Heap_obj.word_size * n_fields t id)

let[@inline] stale t id = Header.stale_counter (header t id)

let set_stale t id k = set_header t id (Header.with_stale_counter (header t id) k)

(* Field [k] of object [id] is word [offset + k] of its extent; [k] is
   checked against the count, as an array index would be. *)
let[@inline never] field_out_of_bounds () = invalid_arg "index out of bounds"

let[@inline] word_index t id k =
  let e = t.extents.(id - 1) in
  if k lor (extent_count e - 1 - k) >= 0 then extent_offset e + k
  else field_out_of_bounds ()

let[@inline] field t id k = Array.unsafe_get t.words (word_index t id k)

let[@inline] set_field t id k w = Array.unsafe_set t.words (word_index t id k) w

let clear_fields t id =
  let e = t.extents.(id - 1) in
  let off = extent_offset e in
  Array.fill t.words off (extent_count e) Word.null

let blit_fields t ~src ~src_pos ~dst ~dst_pos ~len =
  let e_src = t.extents.(src - 1) and e_dst = t.extents.(dst - 1) in
  if
    len < 0 || src_pos < 0
    || src_pos > extent_count e_src - len
    || dst_pos < 0
    || dst_pos > extent_count e_dst - len
  then invalid_arg "Array.blit";
  Array.blit t.words (extent_offset e_src + src_pos) t.words
    (extent_offset e_dst + dst_pos)
    len

let[@inline] words t = t.words

let[@inline] extent t id = t.extents.(id - 1)

let word_capacity t = Array.length t.words

(* Finishes the sweep first, so the freed id queues behind every id
   the sweep frees, as it would after an eager sweep. *)
let free t obj =
  finish_sweep t;
  if not (is_live t obj) then
    invalid_arg "Store.free: object is not live in this store";
  let id = Heap_obj.index obj in
  let i = id - 1 in
  let h = t.headers.(i) in
  let size = Header.size h in
  t.headers.(i) <- Header.free;
  push_free_id t id;
  t.used <- t.used - size;
  if Header.in_nursery h then t.nursery <- t.nursery - size;
  t.count <- t.count - 1

let nursery_bytes t = t.nursery

let promote t id =
  let h = header t id in
  if (not (Header.is_free h)) && Header.in_nursery h then begin
    set_header t id (Header.clear_in_nursery h);
    t.nursery <- t.nursery - size_bytes t id
  end

let promote_all t =
  let headers = t.headers in
  let promoted = ref 0 in
  for i = 0 to t.next_id - 2 do
    let h = Array.unsafe_get headers i in
    if live_at t i && Header.in_nursery h then begin
      Array.unsafe_set headers i (Header.clear_in_nursery h);
      promoted := !promoted + Header.size h
    end
  done;
  t.nursery <- t.nursery - !promoted

let next_fresh_id t = t.next_id

let slot_count t = t.next_id - 1

let iter_live t f =
  for i = 0 to slot_count t - 1 do
    if live_at t i then
      f (Heap_obj.pack ~index:(i + 1) ~generation:(Array.unsafe_get t.gens i))
  done

(* The end of a collection. Every object the mark did not reach is
   dead, so the objects and bytes it frees are the store's totals less
   the marked ones; the totals become the marked ones, and the whole
   slot range is left for [sweep_range]. The marks are not counted by
   generation: a store holding
   nursery objects (a generational VM, which promotes every survivor
   right after a full collection anyway) sums its marked nursery bytes
   here, in one loop over the header array; counting them as the mark
   claims objects slowed every mark. *)
let settle t stats ~objects ~bytes =
  if not (mark_open t) then invalid_arg "Store.settle: no mark is open";
  (* room in the queue for every id the sweep will free, so that no
     allocation grows it *)
  while Array.length t.free_ids < t.free_len + t.count - objects do
    grow_free_ids t
  done;
  stats.Gc_stats.objects_swept <- stats.Gc_stats.objects_swept + t.count - objects;
  stats.Gc_stats.bytes_reclaimed <- stats.Gc_stats.bytes_reclaimed + t.used - bytes;
  t.used <- bytes;
  t.live <- bytes;
  t.count <- objects;
  if t.nursery > 0 then begin
    let headers = t.headers and nursery = ref 0 in
    for i = 0 to slot_count t - 1 do
      let h = Array.unsafe_get headers i in
      if h >= 0 && Header.mark h = t.sense && Header.in_nursery h then
        nursery := !nursery + Header.size h
    done;
    t.nursery <- !nursery
  end;
  t.live_mask <- settled_mask;
  t.live_want <- t.sense;
  t.unswept <- slot_count t

(* One pass over the header array, counting live objects by the stale
   counter in their headers. *)
let staleness_histogram t =
  let hist = Array.make (Header.max_stale + 1) 0 in
  for i = 0 to slot_count t - 1 do
    if live_at t i then begin
      let s = Header.stale_counter (Array.unsafe_get t.headers i) in
      hist.(s) <- hist.(s) + 1
    end
  done;
  hist
