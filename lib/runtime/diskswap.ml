open Lp_heap

type config = { disk_limit_bytes : int }

let default_config ~disk_limit_bytes = { disk_limit_bytes }

(* An object is "highly stale", an offload candidate, once its stale
   counter reaches this. *)
let offload_stale_threshold = 2

(* Offloading runs after a collection that leaves more than this share
   of the heap in memory. *)
let offload_occupancy = 0.9

(* An offloaded object's disk residency: its heap size (what the store's
   swapped-out credit refunds) and the serialized payload a swap-in must
   read back. *)
type entry = { bytes : int; payload : bytes }

(* A stored prune image: the bytes a later load will see, with the
   targets of their non-null reference words read once when the image
   is stored ([Swap_image.stored_refs]), so retention follows memoised
   references instead of re-parsing every image at every collection.
   [Corrupt] marks bytes that did not validate: retention keeps such an
   image when it is referenced but follows nothing through it. *)
type image = Valid of bytes * int array | Corrupt of bytes

let image_data = function Valid (data, _) | Corrupt data -> data

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
  resident : (int, entry) Hashtbl.t;  (* object id -> offloaded payload *)
  images : (int, image) Hashtbl.t;  (* pruned object id -> swap image *)
  forwards : (int, int) Hashtbl.t;  (* pruned id -> resurrected id *)
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
      (* the offload pass's sort keys, and the ids a retention pass
         drops; reused, grown by doubling *)
}

exception Out_of_disk = Lp_core.Errors.Out_of_disk

let create ?metrics ?backend config =
  let metrics =
    match metrics with Some m -> m | None -> Lp_obs.Metrics.create ()
  in
  {
    config;
    (* [resident] starts small and grows with residency, so [reconcile]
       and [iter_resident] walk about as many buckets as entries.
       [images] keeps 1,024 buckets: its iteration order fixes the order
       of a retention pass's [Image_drop] events. *)
    resident = Hashtbl.create 16;
    images = Hashtbl.create 1024;
    forwards = Hashtbl.create 64;
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

let resident_count t = Hashtbl.length t.resident

let iter_resident t f =
  Hashtbl.iter (fun id { bytes; _ } -> f ~id ~bytes) t.resident

let total_swap_outs t = Lp_obs.Metrics.counter_value t.c_swap_outs

let total_swap_ins t = Lp_obs.Metrics.counter_value t.c_swap_ins

let disk_bytes t = t.resident_total + t.image_total

let out_of_disk t =
  Lp_core.Errors.Out_of_disk
    { resident_bytes = disk_bytes t; limit_bytes = t.config.disk_limit_bytes }

(* ---- Swap images of pruned objects ---- *)

(* The write-time fault hook models the storage layer: whatever bytes it
   returns are what a later load will see (bit rot, torn write). *)
let store_image t ~id image =
  let image = match t.image_fault with Some f -> f image | None -> image in
  (match Hashtbl.find_opt t.images id with
  | Some old -> set_image_total t (t.image_total - Bytes.length (image_data old))
  | None -> ());
  Hashtbl.replace t.images id (memoise image);
  bump t;
  set_image_total t (t.image_total + Bytes.length image);
  Lp_obs.Metrics.incr t.c_image_writes;
  match t.sink with
  | Some s ->
    Lp_obs.Sink.emit s
      (Lp_obs.Event.Image_capture { id; bytes = Bytes.length image })
  | None -> ()

let load_image t id =
  match Hashtbl.find_opt t.images id with
  | Some image -> Some (image_data image)
  | None -> None

let iter_image_refs t id f =
  match Hashtbl.find t.images id with
  | Valid (_, refs) -> Array.iter f refs
  | Corrupt _ -> ()
  | exception Not_found -> ()

let has_image t id = Hashtbl.mem t.images id

let drop_image t id =
  match Hashtbl.find t.images id with
  | exception Not_found -> ()
  | image ->
    Hashtbl.remove t.images id;
    bump t;
    set_image_total t (t.image_total - Bytes.length (image_data image));
    Lp_obs.Metrics.incr t.c_image_drops;
    (match t.sink with
    | Some s -> Lp_obs.Sink.emit s (Lp_obs.Event.Image_drop { id })
    | None -> ())

let grow_scratch a =
  let a' = Array.make (max 64 (2 * Array.length a)) 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Drops the images [keep] rejects in the reverse of the table's order,
   which is the order of their [Image_drop] events; their ids are
   gathered in the reused scratch array first. *)
let retain_images t ~keep =
  let n = ref 0 in
  Hashtbl.iter
    (fun id _ ->
      if not (keep id) then begin
        if !n = Array.length t.scratch then t.scratch <- grow_scratch t.scratch;
        t.scratch.(!n) <- id;
        incr n
      end)
    t.images;
  for k = !n - 1 downto 0 do
    drop_image t t.scratch.(k)
  done

let iter_images t f =
  Hashtbl.iter
    (fun id image ->
      match image with
      | Valid (data, refs) -> f ~id ~image:data ~refs:(Some refs)
      | Corrupt data -> f ~id ~image:data ~refs:None)
    t.images

let image_count t = Hashtbl.length t.images

let image_bytes t = t.image_total

let image_writes t = Lp_obs.Metrics.counter_value t.c_image_writes

let image_drops t = Lp_obs.Metrics.counter_value t.c_image_drops

let forward t ~old_id ~new_id =
  Hashtbl.replace t.forwards old_id new_id;
  bump t

(* Transitive: a resurrected object can itself be pruned and resurrected
   again, chaining entries. The visit bound makes a (buggy) cycle
   terminate at the last id seen rather than hanging the barrier. *)
let rec follow t id steps =
  match Hashtbl.find_opt t.forwards id with
  | Some next when steps < Hashtbl.length t.forwards + 1 ->
    follow t next (steps + 1)
  | Some _ | None -> id

let resolve_forward t id =
  if Hashtbl.length t.forwards = 0 then None
  else
    let final = follow t id 0 in
    if final = id then None else Some final

(* ---- Offload baseline ---- *)

(* Objects reclaimed by the sweep release their disk space. Runs before
   any allocation can recycle an identifier, so a live id here is still
   the same object. With nothing resident there is nothing to release,
   and the walk over the table's buckets is skipped. *)
let reconcile t store =
  if Hashtbl.length t.resident > 0 then begin
    let dead = ref [] in
    Hashtbl.iter
      (fun id { bytes; _ } ->
        if not (Store.mem store id) then dead := (id, bytes) :: !dead)
      t.resident;
    List.iter
      (fun (id, bytes) ->
        Hashtbl.remove t.resident id;
        set_resident_total t (t.resident_total - bytes))
      !dead
  end

let offload_one t store id =
  let payload = Swap_image.capture store id in
  let payload = match t.image_fault with Some f -> f payload | None -> payload in
  let bytes = Store.size_bytes store id in
  Hashtbl.replace t.resident id { bytes; payload };
  Store.set_header store id (Header.set_on_disk (Store.header store id));
  set_resident_total t (t.resident_total + bytes);
  Lp_obs.Metrics.incr t.c_swap_outs;
  match t.sink with
  | Some s -> Lp_obs.Sink.emit s (Lp_obs.Event.Disk_offload { id; bytes })
  | None -> ()

(* Sorts [a.(0)] to [a.(n - 1)] ascending, in place: a heapsort. *)
let sort_prefix a n =
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        let x = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- x;
        sift c n
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift 0 last
  done

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
       heap, not of hash-table iteration order. Each candidate is one
       int key, staleness descending then id ascending, sorted in place
       in this swap store's reused scratch array. *)
    let stride = Store.slot_count store + 1 in
    let n = ref 0 in
    for id = 1 to Store.slot_count store do
      let h = Store.header store id in
      (* statics containers model immortal space: never offloaded *)
      if
        (not (Header.is_free h))
        && Header.stale_counter h >= offload_stale_threshold
        && (not (Header.statics_container h))
        && not (Hashtbl.mem t.resident id)
      then begin
        if !n = Array.length t.scratch then
          t.scratch <- grow_scratch t.scratch;
        t.scratch.(!n) <-
          ((Header.max_stale - Header.stale_counter h) * stride) + id;
        incr n
      end
    done;
    sort_prefix t.scratch !n;
    for k = 0 to !n - 1 do
      let id = t.scratch.(k) mod stride in
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

let quota_bytes t = t.config.disk_limit_bytes

type recovery = {
  images_valid : int;
  images_corrupt : int;
  payloads_dropped : int;
  bytes_released : int;
}

(* Crash-consistent recovery pass for a tenant restart: audit every
   prune image against its CRC (distinguishing clean images from at-rest
   corruption), then release the whole store — the next VM boots with a
   store of its own, so keeping any of it would leak shared-disk bytes
   forever. Releasing
   through the total setters credits the backend, closing the byte
   accounting across the restart. *)
let recover t =
  let images_valid = ref 0 and images_corrupt = ref 0 in
  Hashtbl.iter
    (fun _ image ->
      match Swap_image.validate (image_data image) with
      | Ok _ -> incr images_valid
      | Error _ -> incr images_corrupt)
    t.images;
  let payloads_dropped = Hashtbl.length t.resident in
  let bytes_released = disk_bytes t in
  Hashtbl.reset t.resident;
  Hashtbl.reset t.images;
  Hashtbl.reset t.forwards;
  bump t;
  set_resident_total t 0;
  set_image_total t 0;
  {
    images_valid = !images_valid;
    images_corrupt = !images_corrupt;
    payloads_dropped;
    bytes_released;
  }

let retrieve t store (obj : Heap_obj.t) =
  match Hashtbl.find_opt t.resident obj.Heap_obj.id with
  | None -> `Not_resident
  | Some { bytes; payload } -> (
    (* The entry is released either way: a successful swap-in moves the
       object back to memory; a corrupt payload means the disk copy is
       lost. Removing before decoding keeps resident_total consistent
       even when the decode reports a fault. *)
    Hashtbl.remove t.resident obj.Heap_obj.id;
    Store.set_header store obj.Heap_obj.id
      (Header.clear_on_disk (Store.header store obj.Heap_obj.id));
    set_resident_total t (t.resident_total - bytes);
    Store.set_swapped_out_bytes store t.resident_total;
    let emit_restore ok =
      match t.sink with
      | Some s ->
        Lp_obs.Sink.emit s
          (Lp_obs.Event.Disk_restore { id = obj.Heap_obj.id; ok })
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
