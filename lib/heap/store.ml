exception Heap_full of { requested : int; used : int; limit : int }

exception Dangling_reference of int

(* The one object every empty slot holds. Id 0 is never allocated, so
   no slot index maps to it and [is_live sentinel] is false. Callers
   only ever get it as [find]'s miss, to compare against with [==]. *)
let sentinel =
  {
    Heap_obj.id = 0;
    class_id = -1;
    header = Header.empty;
    fields = [||];
    scalar_bytes = 0;
    size_bytes = 0;
  }

type t = {
  mutable slots : Heap_obj.t array;
      (* index = id - 1; an empty slot holds [sentinel] *)
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

let create_at ~first_id ~limit_bytes =
  if limit_bytes <= 0 then invalid_arg "Store.create";
  if first_id < 1 then invalid_arg "Store.create_at: first_id must be >= 1";
  {
    slots = Array.make (max 1024 first_id) sentinel;
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

let ensure_capacity t id =
  if id > Array.length t.slots then begin
    let slots = Array.make (max (2 * Array.length t.slots) id) sentinel in
    Array.blit t.slots 0 slots 0 (Array.length t.slots);
    t.slots <- slots
  end

let push_free_id t id =
  let cap = Array.length t.free_ids in
  if t.free_len = cap then begin
    let ids = Array.make (2 * cap) 0 in
    let first = cap - t.free_head in
    Array.blit t.free_ids t.free_head ids 0 first;
    Array.blit t.free_ids 0 ids first (cap - first);
    t.free_ids <- ids;
    t.free_head <- 0
  end;
  let tail = t.free_head + t.free_len in
  let cap = Array.length t.free_ids in
  t.free_ids.(if tail >= cap then tail - cap else tail) <- id;
  t.free_len <- t.free_len + 1

let fresh_id t =
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

let alloc_generation t ~nursery ~class_id ~n_fields ~scalar_bytes ~finalizable =
  let size = Heap_obj.size_of ~n_fields ~scalar_bytes in
  (match t.alloc_fault with
  | Some refuse when refuse () ->
    raise (Heap_full { requested = size; used = t.used; limit = t.limit })
  | Some _ | None -> ());
  if would_overflow t size then
    raise (Heap_full { requested = size; used = t.used; limit = t.limit });
  let id = fresh_id t in
  let header = if finalizable then Header.set_finalizable Header.empty else Header.empty in
  let header = if nursery then Header.set_in_nursery header else header in
  let obj =
    {
      Heap_obj.id;
      class_id;
      header;
      fields = Array.make n_fields Word.null;
      scalar_bytes;
      size_bytes = size;
    }
  in
  t.slots.(id - 1) <- obj;
  t.used <- t.used + size;
  t.count <- t.count + 1;
  t.total_allocated <- t.total_allocated + size;
  if nursery then t.nursery <- t.nursery + size;
  obj

let alloc t ~class_id ~n_fields ~scalar_bytes ~finalizable =
  alloc_generation t ~nursery:false ~class_id ~n_fields ~scalar_bytes ~finalizable

(* [0 <= i < len] as one sign test: [i lor (len - 1 - i)] is negative
   exactly when one of the two differences is. Both lookups below check
   the bound this way and then load without a second check. *)
let[@inline] in_bounds slots i = i lor (Array.length slots - 1 - i) >= 0

let[@inline] find t id =
  let i = id - 1 in
  if in_bounds t.slots i then Array.unsafe_get t.slots i else sentinel

let[@inline] is_live t (obj : Heap_obj.t) =
  let i = obj.Heap_obj.id - 1 in
  in_bounds t.slots i && Array.unsafe_get t.slots i == obj

let[@inline never] dangling id = raise (Dangling_reference id)

let[@inline] get t id =
  let obj = find t id in
  if obj == sentinel then dangling id else obj

let mem t id = find t id != sentinel

let free t (obj : Heap_obj.t) =
  if not (is_live t obj) then
    invalid_arg "Store.free: object is not live in this store";
  t.slots.(obj.Heap_obj.id - 1) <- sentinel;
  push_free_id t obj.Heap_obj.id;
  t.used <- t.used - obj.Heap_obj.size_bytes;
  if Header.in_nursery obj.Heap_obj.header then
    t.nursery <- t.nursery - obj.Heap_obj.size_bytes;
  t.count <- t.count - 1

let nursery_bytes t = t.nursery

let promote t (obj : Heap_obj.t) =
  if Header.in_nursery obj.Heap_obj.header then begin
    obj.Heap_obj.header <- Header.clear_in_nursery obj.Heap_obj.header;
    t.nursery <- t.nursery - obj.Heap_obj.size_bytes
  end

let next_fresh_id t = t.next_id

let iter_live t f =
  for i = 0 to t.next_id - 2 do
    let obj = t.slots.(i) in
    if obj != sentinel then f obj
  done

let slot_count t = t.next_id - 1

let iter_live_range t ~lo ~hi f =
  for i = lo to hi - 1 do
    let obj = t.slots.(i) in
    if obj != sentinel then f obj
  done

let iter_live_range_desc t ~lo ~hi f =
  for i = hi - 1 downto lo do
    let obj = t.slots.(i) in
    if obj != sentinel then f obj
  done

let total_allocated_bytes t = t.total_allocated
