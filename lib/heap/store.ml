exception Heap_full of { requested : int; used : int; limit : int }

exception Dangling_reference of int

(* The handle of a slot never used. Id 0 is never allocated, so no
   slot index maps to it and [is_live sentinel] is false. Callers only
   ever get it as [find]'s miss, to compare against with [==]. *)
let sentinel = { Heap_obj.id = 0; fields = [||] }

(* The object state lives in four parallel arrays indexed by [id - 1],
   all of one length. [headers] decides liveness: a free slot holds
   [Header.free] there, and its [slots] entry keeps the handle of its
   last occupant (or [sentinel]) until [place] reuses the id, so
   freeing stores no pointer. [classes] and [sizes] hold the last
   occupant's values. *)
type t = {
  mutable slots : Heap_obj.t array;
  mutable headers : int array;
  mutable classes : int array;
  mutable sizes : int array;
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
  mutable total_allocated : int;
  mutable swapped_out : int;
  mutable nursery : int;
  mutable alloc_fault : (unit -> bool) option;
}

(* The arrays start at one slot per [bytes_per_slot] bytes of heap
   limit, the size of a small object, within [min_slots, max_slots].
   Growing means copying all four arrays and leaving the old ones to
   OCaml's GC, so a store that fills its heap with small objects should
   grow them once or not at all. *)
let bytes_per_slot = 64

let min_slots = 1024

let max_slots = 1 lsl 16

let create_at ~first_id ~limit_bytes =
  if limit_bytes <= 0 then invalid_arg "Store.create";
  if first_id < 1 then invalid_arg "Store.create_at: first_id must be >= 1";
  let cap =
    max first_id (min max_slots (max min_slots (limit_bytes / bytes_per_slot)))
  in
  {
    slots = Array.make cap sentinel;
    headers = Array.make cap Header.free;
    classes = Array.make cap 0;
    sizes = Array.make cap 0;
    next_id = first_id;
    free_ids = Array.make 64 0;
    free_head = 0;
    free_len = 0;
    limit = limit_bytes;
    used = 0;
    live = 0;
    count = 0;
    total_allocated = 0;
    swapped_out = 0;
    nursery = 0;
    alloc_fault = None;
  }

let create ~limit_bytes = create_at ~first_id:1 ~limit_bytes

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
   [fresh_id]. The four arrays grow together, by half: a heap whose
   slot count settles just past a power of two would otherwise carry
   nearly twice the slots it uses, in four arrays. *)
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
  t.sizes <- grow t.sizes 0

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

(* A fresh field array of null words. Up to four words the array is
   built inline; wider ones go through [Array.make], a C call. *)
let[@inline] null_fields n_fields =
  match n_fields with
  | 0 -> [||]
  | 1 -> [| Word.null |]
  | 2 -> [| Word.null; Word.null |]
  | 3 -> [| Word.null; Word.null; Word.null |]
  | 4 -> [| Word.null; Word.null; Word.null; Word.null |]
  | n -> Array.make n Word.null

let[@inline] fits t size = t.alloc_fault == None && not (would_overflow t size)

(* The placement step every allocation ends in: an id, a handle with
   null fields in its slot, the header, class and size, and the byte
   accounting. [fresh_id] makes sure the id's slot exists, so the
   stores into it are unchecked. *)
let[@inline] place t ~nursery ~class_id ~n_fields ~finalizable ~size =
  let id = fresh_id t in
  let i = id - 1 in
  let header = if finalizable then Header.set_finalizable Header.empty else Header.empty in
  let header = if nursery then Header.set_in_nursery header else header in
  let obj = { Heap_obj.id; fields = null_fields n_fields } in
  Array.unsafe_set t.slots i obj;
  Array.unsafe_set t.headers i header;
  Array.unsafe_set t.classes i class_id;
  Array.unsafe_set t.sizes i size;
  t.used <- t.used + size;
  t.count <- t.count + 1;
  t.total_allocated <- t.total_allocated + size;
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

let scalar_bytes t (obj : Heap_obj.t) =
  size_bytes t obj.Heap_obj.id
  - Heap_obj.header_bytes
  - (Heap_obj.word_size * Array.length obj.Heap_obj.fields)

let[@inline] stale t id = Header.stale_counter (header t id)

let set_stale t id k = set_header t id (Header.with_stale_counter (header t id) k)

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
   slot gets the free marker and keeps its handle, so the loop makes no
   pointer store. The byte and object totals are written back once, at
   the end of the range. *)
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

let total_allocated_bytes t = t.total_allocated
