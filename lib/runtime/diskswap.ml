open Lp_heap

type config = { disk_limit_bytes : int }

let default_config ~disk_limit_bytes = { disk_limit_bytes }

(* An object is "highly stale", an offload candidate, once its stale
   counter reaches this. *)
let offload_stale_threshold = 2

(* Offloading runs after a collection that leaves more than this share
   of the heap in memory. *)
let offload_occupancy = 0.9

(* A stored prune image: the bytes a later load will see, with the
   targets of their non-null reference words read once when the image
   is stored ([Swap_image.stored_refs]), so retention follows memoised
   references instead of re-parsing every image at every collection.
   [Corrupt] marks bytes that did not validate: retention keeps such an
   image when it is referenced but follows nothing through it.
   [No_image] fills the slots of the image table that hold none. *)
type image = No_image | Valid of bytes * int array | Corrupt of bytes

(* An offloaded object's residency: its heap size (what the store's
   swapped-out credit refunds) and the serialized payload a swap-in
   must read back. [not_resident] fills the slots that hold none. *)
type resident = { size : int; payload : bytes }

let not_resident = { size = 0; payload = Bytes.empty }

let image_data = function
  | Valid (data, _) | Corrupt data -> data
  | No_image -> Bytes.empty

(* The bytes are validated again here, whoever wrote them: the
   image-fault hook may have changed them on their way to disk. *)
let memoise data =
  match Swap_image.validate data with
  | Ok _ -> Valid (data, Swap_image.stored_refs data)
  | Error _ -> Corrupt data

(* A shared disk shared by several swap stores (one per tenant). Byte
   accounting is kept by the stores themselves — every total update also
   moves [used_bytes] by the same delta — so the backend never needs to
   know which tenants exist. *)
type backend = {
  mutable capacity_bytes : int;
  mutable used_bytes : int;
  mutable denials : int;  (* cumulative admission denials, all tenants *)
}

let create_backend ~capacity_bytes =
  if capacity_bytes < 0 then
    invalid_arg "Diskswap.create_backend: capacity must be >= 0";
  { capacity_bytes; used_bytes = 0; denials = 0 }

let backend_capacity b = b.capacity_bytes

let backend_used_bytes b = b.used_bytes

let backend_denials b = b.denials

let set_backend_capacity b capacity = b.capacity_bytes <- capacity

type t = {
  config : config;
  (* Offload residency, prune images and forwards, each indexed by
     object id: an offloaded object's residency, a pruned object's swap
     image, and the id it was resurrected as (0 for none). *)
  resident : resident Slot_table.t;
  images : image Slot_table.t;
  forwards : int Slot_table.t;
  (* Bumped by every write to [images] or [forwards], so a reader can
     tell in one comparison that neither changed since it last looked. *)
  mutable generation : int;
  mutable resident_total : int;
  mutable image_total : int;
  backend : backend option;
  mutable denied : int;  (* this store's admission denials *)
  (* The disk.* totals live in the metrics registry; the accessors below
     read them back, so the registry is the single source of truth. *)
  c_swap_outs : Lp_obs.Metrics.counter;
  c_swap_ins : Lp_obs.Metrics.counter;
  c_image_writes : Lp_obs.Metrics.counter;
  c_image_drops : Lp_obs.Metrics.counter;
  c_admission_denied : Lp_obs.Metrics.counter;
  g_resident_bytes : Lp_obs.Metrics.gauge;
  g_image_bytes : Lp_obs.Metrics.gauge;
  mutable sink : Lp_obs.Sink.t option;
  mutable fault : (unit -> bool) option;
  mutable image_fault : (bytes -> bytes) option;
  mutable scratch : int array;
      (* the offload pass's candidate ids; reused, grown by doubling *)
}

exception Out_of_disk = Lp_core.Errors.Out_of_disk

let create ?metrics ?backend config =
  let metrics =
    match metrics with Some m -> m | None -> Lp_obs.Metrics.create ()
  in
  {
    config;
    resident = Slot_table.create not_resident;
    images = Slot_table.create No_image;
    forwards = Slot_table.create 0;
    generation = 0;
    resident_total = 0;
    image_total = 0;
    backend;
    denied = 0;
    c_swap_outs = Lp_obs.Metrics.counter metrics "disk.swap_outs";
    c_swap_ins = Lp_obs.Metrics.counter metrics "disk.swap_ins";
    c_image_writes = Lp_obs.Metrics.counter metrics "disk.image_writes";
    c_image_drops = Lp_obs.Metrics.counter metrics "disk.image_drops";
    c_admission_denied = Lp_obs.Metrics.counter metrics "disk.admission_denied";
    g_resident_bytes = Lp_obs.Metrics.gauge metrics "disk.resident_bytes";
    g_image_bytes = Lp_obs.Metrics.gauge metrics "disk.image_bytes";
    sink = None;
    fault = None;
    image_fault = None;
    scratch = [||];
  }

let set_sink t s = t.sink <- s

let generation t = t.generation

let bump t = t.generation <- t.generation + 1

let set_fault_hook t f = t.fault <- f

let set_image_fault_hook t f = t.image_fault <- f

(* Every byte-total update flows through these two setters, so charging
   the shared backend here covers offloads, swap-ins, reconciliation,
   image writes/drops and recovery alike — the backend's [used_bytes] is
   the sum of the attached stores' footprints by construction. *)
let charge_backend t delta =
  match t.backend with
  | Some b -> b.used_bytes <- b.used_bytes + delta
  | None -> ()

let set_resident_total t total =
  charge_backend t (total - t.resident_total);
  t.resident_total <- total;
  Lp_obs.Metrics.set_gauge t.g_resident_bytes total

let set_image_total t total =
  charge_backend t (total - t.image_total);
  t.image_total <- total;
  Lp_obs.Metrics.set_gauge t.g_image_bytes total

let resident_bytes t = t.resident_total

let resident_count t = Slot_table.count t.resident

let iter_resident t f =
  Slot_table.iter t.resident (fun id r -> f ~id ~bytes:r.size)

let total_swap_outs t = Lp_obs.Metrics.counter_value t.c_swap_outs

let total_swap_ins t = Lp_obs.Metrics.counter_value t.c_swap_ins

let disk_bytes t = t.resident_total + t.image_total

let out_of_disk t =
  Lp_core.Errors.Out_of_disk
    { resident_bytes = disk_bytes t; limit_bytes = t.config.disk_limit_bytes }

(* ---- Swap images of pruned objects ---- *)

let image_at t id = Slot_table.get t.images id

(* The write-time fault hook models the storage layer: whatever bytes it
   returns are what a later load will see (bit rot, torn write). It
   advances a fault plan, so a bad id is refused before it runs. *)
let store_image t ~id image =
  if id < 1 then invalid_arg "Diskswap.store_image: id must be >= 1";
  let image = match t.image_fault with Some f -> f image | None -> image in
  let old = image_at t id in
  Slot_table.set t.images id (memoise image);
  bump t;
  set_image_total t
    (t.image_total - Bytes.length (image_data old) + Bytes.length image);
  Lp_obs.Metrics.incr t.c_image_writes;
  match t.sink with
  | Some s ->
    Lp_obs.Sink.emit s
      (Lp_obs.Event.Image_capture { id; bytes = Bytes.length image })
  | None -> ()

let load_image t id =
  match image_at t id with
  | No_image -> None
  | image -> Some (image_data image)

let iter_image_refs t id f =
  match image_at t id with
  | Valid (_, refs) -> Array.iter f refs
  | Corrupt _ | No_image -> ()

let has_image t id =
  match image_at t id with No_image -> false | Valid _ | Corrupt _ -> true

let drop_image t id =
  match image_at t id with
  | No_image -> ()
  | image ->
    Slot_table.set t.images id No_image;
    bump t;
    set_image_total t (t.image_total - Bytes.length (image_data image));
    Lp_obs.Metrics.incr t.c_image_drops;
    (match t.sink with
    | Some s -> Lp_obs.Sink.emit s (Lp_obs.Event.Image_drop { id })
    | None -> ())

(* Drops the images [keep] rejects as it meets them, so their
   [Image_drop] events come in ascending id order. *)
let retain_images t ~keep =
  Slot_table.iter t.images (fun id _ -> if not (keep id) then drop_image t id)

let iter_images t f =
  Slot_table.iter t.images (fun id image ->
      match image with
      | Valid (data, refs) -> f ~id ~image:data ~refs:(Some refs)
      | Corrupt data -> f ~id ~image:data ~refs:None
      | No_image -> ())

let image_count t = Slot_table.count t.images

let image_bytes t = t.image_total

let image_writes t = Lp_obs.Metrics.counter_value t.c_image_writes

let image_drops t = Lp_obs.Metrics.counter_value t.c_image_drops

let forward t ~old_id ~new_id =
  if new_id < 1 then invalid_arg "Diskswap.forward: new_id must be >= 1";
  Slot_table.set t.forwards old_id new_id;
  bump t

(* The id [id] was resurrected as; 0 when it was not. *)
let forwarded t id = Slot_table.get t.forwards id

(* Transitive: a resurrected object can itself be pruned and resurrected
   again, chaining entries. The visit bound makes a (buggy) cycle
   terminate at the last id seen rather than hanging the barrier. *)
let rec follow t id steps =
  let next = forwarded t id in
  if next <> 0 && steps < Slot_table.count t.forwards + 1 then
    follow t next (steps + 1)
  else id

let resolve_forward t id =
  if Slot_table.count t.forwards = 0 then None
  else
    let final = follow t id 0 in
    if final = id then None else Some final

(* ---- Offload baseline ---- *)

(* Objects reclaimed by the sweep release their disk space, in one
   walk over the resident slots and one total update. Runs before any
   allocation can recycle an identifier, so a live id here is still the
   same object. With nothing resident there is nothing to release, and
   the walk is skipped. *)
let reconcile t store =
  if Slot_table.count t.resident > 0 then begin
    let released = ref 0 in
    Slot_table.iter t.resident (fun id r ->
        if not (Store.mem store id) then begin
          Slot_table.set t.resident id not_resident;
          released := !released + r.size
        end);
    if !released > 0 then set_resident_total t (t.resident_total - !released)
  end

let offload_one t store id =
  let payload = Swap_image.capture store id in
  let payload = match t.image_fault with Some f -> f payload | None -> payload in
  let bytes = Store.size_bytes store id in
  Slot_table.set t.resident id { size = bytes; payload };
  Store.set_header store id (Header.set_on_disk (Store.header store id));
  set_resident_total t (t.resident_total + bytes);
  Lp_obs.Metrics.incr t.c_swap_outs;
  match t.sink with
  | Some s -> Lp_obs.Sink.emit s (Lp_obs.Event.Disk_offload { id; bytes })
  | None -> ()

let grow_scratch a =
  let a' = Array.make (max 64 (2 * Array.length a)) 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Whether the object with header [h] is to be offloaded: live, highly
   stale, not a statics container (they model immortal space) and not
   already resident. [after_gc] asks right after [reconcile] has
   released the dead objects' entries, so a live object is resident
   exactly when it carries the on-disk bit. *)
let offload_candidate h =
  (not (Header.is_free h))
  && Header.stale_counter h >= offload_stale_threshold
  && (not (Header.statics_container h))
  && not (Header.on_disk h)

let after_gc ?(allow_offload = true) t store =
  (match t.fault with
  | Some fails when fails () ->
    (* injected disk failure: the post-collection disk operation dies
       before any bookkeeping, as a real I/O error would *)
    raise (out_of_disk t)
  | Some _ | None -> ());
  reconcile t store;
  let limit = Store.limit_bytes store in
  let in_memory () = Store.live_bytes store - t.resident_total in
  if
    allow_offload
    && float_of_int (in_memory ()) /. float_of_int limit > offload_occupancy
  then begin
    (* Candidates are offloaded most-stale first (ties broken by lowest
       id) so the payload write order — and therefore which write an
       injected swap fault lands on — is a deterministic function of the
       heap. A counting pass over the header array sizes each stale
       level; a placement pass puts each candidate's id into this swap
       store's reused scratch array after every more-stale one, in
       ascending id order within its level. [next.(s)] is first a
       level's count, then the scratch position of its next id. *)
    let slots = Store.slot_count store in
    let next = Array.make (Header.max_stale + 1) 0 in
    for id = 1 to slots do
      let h = Store.header store id in
      if offload_candidate h then begin
        let s = Header.stale_counter h in
        next.(s) <- next.(s) + 1
      end
    done;
    let n = ref 0 in
    for s = Header.max_stale downto offload_stale_threshold do
      let count = next.(s) in
      next.(s) <- !n;
      n := !n + count
    done;
    if !n > 0 then begin
      while Array.length t.scratch < !n do
        t.scratch <- grow_scratch t.scratch
      done;
      for id = 1 to slots do
        let h = Store.header store id in
        if offload_candidate h then begin
          let s = Header.stale_counter h in
          t.scratch.(next.(s)) <- id;
          next.(s) <- next.(s) + 1
        end
      done
    end;
    for k = 0 to !n - 1 do
      let id = t.scratch.(k) in
      match t.backend with
      | None -> offload_one t store id
      | Some b ->
        (* Shared-disk admission: an offload is admitted only when it
           fits both this tenant's quota ([disk_limit_bytes]) and the
           backend's remaining capacity. A denial is bookkeeping, not
           an error — the object simply stays in memory, and sustained
           denials surface to the fleet as backpressure. *)
        let bytes = Store.size_bytes store id in
        if
          disk_bytes t + bytes <= t.config.disk_limit_bytes
          && b.used_bytes + bytes <= b.capacity_bytes
        then offload_one t store id
        else begin
          t.denied <- t.denied + 1;
          b.denials <- b.denials + 1;
          Lp_obs.Metrics.incr t.c_admission_denied
        end
    done
  end;
  Store.set_swapped_out_bytes store t.resident_total;
  if disk_bytes t > t.config.disk_limit_bytes then raise (out_of_disk t)

let admission_denials t = t.denied

type recovery = { images_valid : int; images_corrupt : int }

(* Crash-consistent recovery pass for a tenant restart: audit every
   prune image against its CRC (distinguishing clean images from at-rest
   corruption), then release the whole store — the next VM boots with a
   store of its own, so keeping any of it would leak shared-disk bytes
   forever. Releasing
   through the total setters credits the backend, closing the byte
   accounting across the restart. *)
let recover t =
  let images_valid = ref 0 and images_corrupt = ref 0 in
  Slot_table.iter t.images (fun _ image ->
      match Swap_image.validate (image_data image) with
      | Ok _ -> incr images_valid
      | Error _ -> incr images_corrupt);
  Slot_table.clear t.resident;
  Slot_table.clear t.images;
  Slot_table.clear t.forwards;
  bump t;
  set_resident_total t 0;
  set_image_total t 0;
  { images_valid = !images_valid; images_corrupt = !images_corrupt }

let retrieve t store (obj : Heap_obj.t) =
  let id = Heap_obj.index obj in
  match Slot_table.get t.resident id with
  | r when r == not_resident -> `Not_resident
  | { size = bytes; payload } -> (
    (* The entry is released either way: a successful swap-in moves the
       object back to memory; a corrupt payload means the disk copy is
       lost. Releasing before decoding keeps resident_total consistent
       even when the decode reports a fault. *)
    Slot_table.set t.resident id not_resident;
    Store.set_header store id (Header.clear_on_disk (Store.header store id));
    set_resident_total t (t.resident_total - bytes);
    Store.set_swapped_out_bytes store t.resident_total;
    let emit_restore ok =
      match t.sink with
      | Some s -> Lp_obs.Sink.emit s (Lp_obs.Event.Disk_restore { id; ok })
      | None -> ()
    in
    match Swap_image.validate payload with
    | Ok _ ->
      Lp_obs.Metrics.incr t.c_swap_ins;
      emit_restore true;
      `Swapped_in
    | Error reason ->
      emit_restore false;
      `Corrupt reason)
