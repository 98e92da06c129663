exception Heap_full of { requested : int; used : int; limit : int }

exception Dangling_reference of int

(* The handle of a slot never used. Id 0 is never allocated, so no
   slot index maps to it and [is_live sentinel] is false. Callers only
   ever get it as [find]'s miss, to compare against with [==]. *)
let sentinel = { Heap_obj.id = 0 }

(* The object state lives in five parallel arrays indexed by [id - 1],
   all of one length. [headers] decides liveness: a free slot holds
   [Header.free] there, and its [slots] entry keeps the handle of its
   last occupant (or [sentinel]) until [place] reuses the id, so
   freeing stores no pointer. [classes], [sizes] and [extents] hold the
   last occupant's values.

   Every object's reference fields are consecutive words of the one
   [words] array. Its extent packs where they start and how many there
   are into one int, [offset lsl count_bits lor count], so a reader
   finds both with one load. Words below [top] have been handed out;
   those at or above it are all [Word.null]. A freed slot keeps its
   range, as it keeps its handle, so freeing touches neither the words
   nor the extent. When [place] reuses the id for an object of the same
   field count, the range goes with it; otherwise the range is pushed
   on the stack of free ranges of its count ([free_ranges.(n)],
   [free_lens.(n)] deep), and the new object takes the top range of its
   own count's stack, or words from [top]. *)
type t = {
  mutable slots : Heap_obj.t array;
  mutable headers : int array;
  mutable classes : int array;
  mutable sizes : int array;
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
   Growing means copying all five arrays and leaving the old ones to
   OCaml's GC, so a store that fills its heap with small objects should
   grow them once or not at all. The word array starts at
   [words_per_slot] words per slot, small enough that creating a store
   does not touch much fresh memory, and grows on demand (see
   [refill]). *)
let bytes_per_slot = 64

let min_slots = 1024

let max_slots = 1 lsl 16

let words_per_slot = 2

let create ~limit_bytes =
  if limit_bytes <= 0 then invalid_arg "Store.create";
  let cap = min max_slots (max min_slots (limit_bytes / bytes_per_slot)) in
  {
    slots = Array.make cap sentinel;
    headers = Array.make cap Header.free;
    classes = Array.make cap 0;
    sizes = Array.make cap 0;
    extents = Array.make cap 0;
    words = Array.make (words_per_slot * cap) Word.null;
    top = 0;
    free_ranges = Array.make 8 [||];
    free_lens = Array.make 8 0;
    next_id = 1;
    free_ids = Array.make 64 0;
    free_head = 0;
    free_len = 0;
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

let set_live_bytes t n = t.live <- n

let object_count t = t.count

let swapped_out_bytes t = t.swapped_out

let set_swapped_out_bytes t n =
  if n < 0 then invalid_arg "Store.set_swapped_out_bytes";
  t.swapped_out <- n

let would_overflow t n = t.used - t.swapped_out + n > t.limit

(* Growth stays out of line so the capacity check inlines into
   [fresh_id]. The five arrays grow together, by half: a heap whose
   slot count settles just past a power of two would otherwise carry
   nearly twice the slots it uses, in five arrays. *)
let[@inline never] grow_slots t id =
  let n = Array.length t.slots in
  let cap = max (n + (n / 2)) id in
  let grow a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.slots <- grow t.slots sentinel;
  t.headers <- grow t.headers Header.free;
  t.classes <- grow t.classes 0;
  t.sizes <- grow t.sizes 0;
  t.extents <- grow t.extents 0

let[@inline] ensure_capacity t id =
  if id > Array.length t.slots then grow_slots t id

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

let[@inline] fresh_id t =
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
   request, which are fewer than [limit / Heap_obj.word_size]. Out of
   line: the allocation fast path only tests for it. *)
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

let[@inline] fits t size = t.alloc_fault == None && not (would_overflow t size)

(* The placement step every allocation ends in: an id, a handle in its
   slot, a range of null words, the header, class, size and extent, and
   the byte accounting. [fresh_id] makes sure the id's slot
   exists, so the stores into it are unchecked. *)
let[@inline] place t ~nursery ~class_id ~n_fields ~finalizable ~size =
  let id = fresh_id t in
  let i = id - 1 in
  let header = if finalizable then Header.set_finalizable Header.empty else Header.empty in
  let header = if nursery then Header.set_in_nursery header else header in
  let extent = take_range t (Array.unsafe_get t.extents i) n_fields in
  let obj = { Heap_obj.id } in
  Array.unsafe_set t.slots i obj;
  Array.unsafe_set t.headers i header;
  Array.unsafe_set t.classes i class_id;
  Array.unsafe_set t.sizes i size;
  Array.unsafe_set t.extents i extent;
  t.used <- t.used + size;
  t.count <- t.count + 1;
  if nursery then t.nursery <- t.nursery + size;
  obj

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
   parallel [slots], without a second check. *)
let[@inline] in_bounds a i = i lor (Array.length a - 1 - i) >= 0

let[@inline] header t id =
  let i = id - 1 in
  if in_bounds t.headers i then Array.unsafe_get t.headers i else Header.free

let[@inline] find t id =
  let i = id - 1 in
  if in_bounds t.headers i && not (Header.is_free (Array.unsafe_get t.headers i))
  then Array.unsafe_get t.slots i
  else sentinel

let[@inline] is_live t (obj : Heap_obj.t) =
  let i = obj.Heap_obj.id - 1 in
  in_bounds t.headers i
  && (not (Header.is_free (Array.unsafe_get t.headers i)))
  && Array.unsafe_get t.slots i == obj

let[@inline never] dangling id = raise (Dangling_reference id)

let[@inline] get t id =
  let obj = find t id in
  if obj == sentinel then dangling id else obj

let mem t id = not (Header.is_free (header t id))

let[@inline] set_header t id h = t.headers.(id - 1) <- h

let[@inline] class_of t id = t.classes.(id - 1)

let[@inline] size_bytes t id = t.sizes.(id - 1)

let[@inline] n_fields t id = extent_count t.extents.(id - 1)

let scalar_bytes t (obj : Heap_obj.t) =
  let id = obj.Heap_obj.id in
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

let free t (obj : Heap_obj.t) =
  if not (is_live t obj) then
    invalid_arg "Store.free: object is not live in this store";
  let i = obj.Heap_obj.id - 1 in
  let h = t.headers.(i) and size = t.sizes.(i) in
  t.headers.(i) <- Header.free;
  push_free_id t obj.Heap_obj.id;
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
  let headers = t.headers and sizes = t.sizes in
  let promoted = ref 0 in
  for i = 0 to t.next_id - 2 do
    let h = Array.unsafe_get headers i in
    if (not (Header.is_free h)) && Header.in_nursery h then begin
      Array.unsafe_set headers i (Header.clear_in_nursery h);
      promoted := !promoted + Array.unsafe_get sizes i
    end
  done;
  t.nursery <- t.nursery - !promoted

let next_fresh_id t = t.next_id

let slot_count t = t.next_id - 1

let iter_live t f =
  for i = 0 to slot_count t - 1 do
    if not (Header.is_free t.headers.(i)) then f t.slots.(i)
  done

(* The collector's sweep over one slot range: one loop over the header
   and size arrays, touching no handle. Each dead object is freed as it
   is reached, in descending slot order, so its id joins the free queue
   in the same order [free] would give; the header already shows the
   object is live, so [free]'s liveness check is not repeated. A freed
   slot gets the free marker and keeps its handle and its range, so the
   loop makes no pointer store. The byte and object totals are written
   back once, at the end of the range. *)
let sweep_range t stats ~lo ~hi =
  if lo < 0 || hi > slot_count t then invalid_arg "Store.sweep_range";
  let headers = t.headers and sizes = t.sizes in
  let live = ref 0 and freed = ref 0 and freed_bytes = ref 0 in
  let nursery_freed = ref 0 in
  for i = hi - 1 downto lo do
    let h = Array.unsafe_get headers i in
    if not (Header.is_free h) then begin
      let size = Array.unsafe_get sizes i in
      if Header.marked h then begin
        Array.unsafe_set headers i (Header.clear_gc_bits h);
        live := !live + size
      end
      else begin
        Array.unsafe_set headers i Header.free;
        push_free_id t (i + 1);
        incr freed;
        freed_bytes := !freed_bytes + size;
        if Header.in_nursery h then nursery_freed := !nursery_freed + size
      end
    end
  done;
  t.used <- t.used - !freed_bytes;
  t.nursery <- t.nursery - !nursery_freed;
  t.count <- t.count - !freed;
  stats.Gc_stats.objects_swept <- stats.Gc_stats.objects_swept + !freed;
  stats.Gc_stats.bytes_reclaimed <-
    stats.Gc_stats.bytes_reclaimed + !freed_bytes;
  !live

(* One pass over the header array, counting live objects by the stale
   counter in their headers. *)
let staleness_histogram t =
  let hist = Array.make (Header.max_stale + 1) 0 in
  let headers = t.headers in
  for i = 0 to t.next_id - 2 do
    let h = Array.unsafe_get headers i in
    if not (Header.is_free h) then begin
      let s = Header.stale_counter h in
      hist.(s) <- hist.(s) + 1
    end
  done;
  hist
