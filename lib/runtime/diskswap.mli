(** The swap store: disk-offload baseline plus pruned-object images.

    Two kinds of data live here, both serialized through
    {!Swap_image} so every byte on "disk" is versioned, length-prefixed
    and CRC-checksummed:

    {b Offload payloads} (Melt / LeakSurvivor style, paper Section 7).
    The prior systems the paper compares against tolerate leaks by
    transferring highly stale objects to disk and retrieving them if the
    program ever accesses them. Mispredictions are therefore cheap (a
    disk fault) rather than fatal — but disk is finite, so "all will
    eventually exhaust disk space and crash". After a collection that
    leaves the heap nearly full, every live object whose stale counter
    has reached the offload threshold is serialized and moved to the
    bounded simulated disk, most-stale first with ties broken by lowest
    identifier — a deterministic order, so injected swap faults land on
    the same write in every run. Offloaded bytes stop counting against
    the heap limit; a read-barrier access faults the payload back in
    (validating it — a corrupt payload means the disk copy is lost).
    An offloaded object carries the {!Lp_heap.Header.on_disk} bit from
    its offload until its swap-in, so the barrier only consults this
    store for objects that are actually on disk.

    {b Prune images} (the resurrection subsystem). When a PRUNE
    collection poisons references, the VM serializes each doomed object
    into an image stored here, keyed by its (about to be freed) object
    identifier. A later access to the poisoned reference — a
    misprediction — re-allocates the object from its image instead of
    killing the session. The {e forwarding table} maps pruned
    identifiers to their resurrected ones, transitively, so sibling
    poisoned references resolve to the already-restored copy.

    Both kinds count against [disk_limit_bytes]; exceeding it raises
    {!Out_of_disk}, which is a compiler-enforced {e alias} of
    {!Lp_core.Errors.Out_of_disk} — the swap layer cannot drift into a
    parallel error taxonomy. *)

type config = {
  disk_limit_bytes : int;
      (** standalone: hard limit. With a {!backend} attached: this
          store's {e quota} — offloads that would exceed it are denied
          admission rather than written *)
  offload_stale_threshold : int;  (** default 2: "highly stale" *)
  offload_occupancy : float;  (** offload when live/limit exceeds this; default 0.9 *)
}

val default_config : disk_limit_bytes:int -> config

type t

(** {1 Shared backend (fleet mode)}

    A [backend] models one physical disk shared by several swap stores
    (one per tenant). Every byte a store adds or releases also moves the
    backend's [used_bytes] by the same delta, so the backend's footprint
    is the sum of its tenants' footprints by construction. Offload
    {e admission} is gated on both the store's own quota
    ([disk_limit_bytes]) and the backend's remaining capacity; a denied
    offload is not an error — the object stays in memory and the denial
    is counted, surfacing to the fleet scheduler as backpressure. Prune
    images are {e not} admission-gated (they record prune decisions
    already taken); an image push past the quota still raises
    {!Out_of_disk} from {!after_gc} exactly as in standalone mode. *)

type backend

val create_backend : capacity_bytes:int -> backend
(** @raise Invalid_argument when [capacity_bytes < 0]. *)

val backend_capacity : backend -> int

val backend_used_bytes : backend -> int
(** Bytes currently held by all attached stores (payloads + images). *)

val backend_denials : backend -> int
(** Cumulative admission denials across all attached stores; the fleet
    scheduler polls the delta per round as its backpressure signal. *)

val set_backend_capacity : backend -> int -> unit
(** Resizes the shared disk; shrinking below [used_bytes] does not evict
    anything, it only makes every subsequent admission fail until space
    frees up (this is how the fleet's disk-pressure fault is applied). *)

exception Out_of_disk of { resident_bytes : int; limit_bytes : int }
(** Alias, not a lookalike: the implementation rebinds
    [Lp_core.Errors.Out_of_disk] ([exception Out_of_disk = ...]), so
    [Diskswap.Out_of_disk] and [Errors.Out_of_disk] are the same
    constructor and a handler for one always matches the other; the
    compiler rejects any drift between the two declarations. *)

val create : ?metrics:Lp_obs.Metrics.t -> ?backend:backend -> config -> t
(** [metrics] is the registry the swap store publishes into: counters
    [disk.swap_outs], [disk.swap_ins], [disk.image_writes],
    [disk.image_drops], [disk.admission_denied] and gauges
    [disk.resident_bytes], [disk.image_bytes] — the registry is the
    single source of truth; the accessors below read it back. A private
    registry is created when omitted. [backend] attaches the store to a
    shared disk (see the section above); without it the store behaves
    exactly as before — no admission control, hard limit only. *)

val set_sink : t -> Lp_obs.Sink.t option -> unit
(** Attaches the event sink: offloads, restores (with validation
    outcome) and prune-image writes/drops become [Disk_offload],
    [Disk_restore], [Image_capture] and [Image_drop] events. No sink
    (the default) costs one branch per operation. *)

val resident_bytes : t -> int
(** Offload payload residency only (the store's swapped-out credit);
    prune images are accounted separately in {!image_bytes}. *)

val resident_count : t -> int

val is_resident : t -> int -> bool
(** Whether the object with this identifier currently lives on disk. *)

val iter_resident : t -> (id:int -> bytes:int -> unit) -> unit
(** Iterates over every disk-resident entry (unspecified order); the
    heap verifier uses this to cross-check residency against the store. *)

val set_fault_hook : t -> (unit -> bool) option -> unit
(** Installs (or clears) a fault-injection hook consulted at the start
    of every {!after_gc}; when it returns [true] the operation fails
    with {!Out_of_disk} as an injected (possibly transient) disk
    failure. [None] by default. *)

val set_image_fault_hook : t -> (bytes -> bytes) option -> unit
(** Write-time storage fault model: every serialized payload or image
    passes through the hook on its way to "disk", and whatever bytes the
    hook returns are what a later load sees. The VM wires the
    {!Lp_fault.Fault_plan.Swap} site here, applying
    [Corrupt_image] / [Torn_write] transformations. [None] by default. *)

val total_swap_outs : t -> int

val total_swap_ins : t -> int

val disk_bytes : t -> int
(** Total disk footprint: offload payloads plus prune images. *)

val after_gc : ?allow_offload:bool -> t -> Lp_heap.Store.t -> unit
(** Post-sweep hook: reconciles entries for objects that died, then
    serializes and offloads stale objects (most-stale first, lowest id
    on ties) if the heap is still too full, updating the store's
    swapped-out credit. [allow_offload:false] runs the hook in degraded
    mode — reconcile and re-check only, no new offloads — which is how
    the VM retries after an [Out_of_disk].
    @raise Out_of_disk when the disk limit is exceeded (or an injected
    fault fires, see {!set_fault_hook}). *)

val admission_denials : t -> int
(** This store's cumulative admission denials (always [0] without a
    backend). *)

val quota_bytes : t -> int
(** The configured [disk_limit_bytes] (the tenant quota in fleet mode). *)

type recovery = {
  images_valid : int;  (** prune images whose CRC check passed *)
  images_corrupt : int;  (** images that failed decode (at-rest rot) *)
  payloads_dropped : int;  (** offload payloads released *)
  bytes_released : int;  (** total disk bytes credited back *)
}

val recover : t -> recovery
(** Crash-consistent recovery pass, run when a tenant VM is restarted
    over this store: audits every prune image against its checksum
    (reporting valid vs. corrupt), then releases {e all} disk state —
    payloads, images and the forwarding table — crediting any attached
    backend. A fresh VM holds no references into the old store, so
    anything kept would be a permanent shared-disk leak. *)

val recover_warm : t -> recovery
(** The warm-restart variant: the same CRC audit, but CRC-valid prune
    images and the forwarding table {e survive} into the next
    incarnation (only corrupt images are dropped, through the normal
    drop path, so [image_drops] and events stay honest). Offload
    payloads are always released — they back heap objects that died
    with the VM. [bytes_released] counts what was actually credited
    back. Retained images that the new incarnation never references are
    released later by the normal post-sweep retention pass, so nothing
    leaks either way. *)

val rebind_metrics : t -> Lp_obs.Metrics.t -> unit
(** Re-interns the store's [disk.*] counters and gauges in a fresh
    incarnation's registry (counters restart at zero — the old
    incarnation's totals were harvested with its own registry snapshot)
    and re-seeds the byte gauges from the surviving totals. Called by
    the VM when it adopts an existing store via [Vm.create
    ~swap_store]. *)

val retrieve :
  t ->
  Lp_heap.Store.t ->
  Lp_heap.Heap_obj.t ->
  [ `Not_resident
  | `Swapped_in
  | `Corrupt of Lp_core.Errors.resurrection_failure ]
(** Faults an offloaded object back in on program access, validating its
    payload, and clears the object's on-disk header bit. [`Swapped_in]
    is a real disk fault (the VM charges the
    fault cost); [`Corrupt] means the payload failed validation — the
    disk copy is lost and the residency entry released either way, so
    accounting never goes negative even when the same object is
    retrieved twice (the second call is [`Not_resident]). *)

(** {1 Prune images and forwarding} *)

val store_image : t -> id:int -> bytes -> unit
(** Writes a pruned object's swap image, passing it through the
    image-fault hook (see {!set_image_fault_hook}); replaces any
    previous image for the same identifier. The stored bytes are
    validated once, here, and the targets of their reference words,
    read in place, are kept with them (see {!iter_image_refs}). *)

val load_image : t -> int -> bytes option

val iter_image_refs : t -> int -> (int -> unit) -> unit
(** [iter_image_refs t id f] calls [f], in field order, on each target
    of a non-null reference word of the image stored under [id]
    ({!Swap_image.stored_refs} of its bytes, memoised when it was
    stored), and on nothing when no image is stored or its bytes did
    not validate. Retention follows these instead of decoding the image
    again. Allocates nothing. *)

val has_image : t -> int -> bool

val drop_image : t -> int -> unit
(** Releases an image's disk space; no-op when absent. *)

val retain_images : t -> keep:(int -> bool) -> unit
(** Retention sweep: drops every image whose identifier fails [keep].
    The VM keeps exactly the images still referenced by live poisoned
    words (directly or through another retained image). *)

val iter_images :
  t -> (id:int -> image:bytes -> refs:int array option -> unit) -> unit
(** Calls [f] on every stored image with its bytes and its memoised
    references ({!iter_image_refs}' targets; [None] when the bytes did
    not validate), in the table's iteration order. *)

val image_count : t -> int

val image_bytes : t -> int

val image_writes : t -> int

val image_drops : t -> int

val forward : t -> old_id:int -> new_id:int -> unit
(** Records that the pruned object [old_id] was resurrected as
    [new_id], so sibling poisoned references resolve to the restored
    copy instead of resurrecting a duplicate. *)

val resolve_forward : t -> int -> int option
(** Follows the forwarding chain transitively; [None] when the
    identifier was never forwarded. *)

val generation : t -> int
(** A counter that moves whenever the stored images or the forwarding
    table change: {!store_image}, a {!drop_image} that drops something,
    {!forward}, {!recover} and {!recover_warm} bump it; reads never do.
    Equal generations mean the images (with their memoised references)
    and the forwards are the same, which is what lets the VM skip a
    retention pass whose inputs did not change. *)
