(** The resurrection policy: capture, retention and restore of pruned
    objects.

    In the paper (Section 4.4) an access to a pruned reference throws.
    A VM created with [~resurrection:true] restores the pruned object
    instead. This module decides everything that takes:

    - {b capture}, at the mark: between the mark and the sweep, a swap
      image of every dying object reachable from an edge the collection
      just pruned or from a live poisoned word;
    - {b retention}, after the sweep: keep exactly the images still
      reachable from a live poisoned word, drop the rest;
    - {b restore}, at the read barrier: re-allocate the pruned object
      from its image and rewire the poisoned word.

    The images and forwards themselves live in {!Diskswap}, where their
    bytes count against the tenant's disk quota and the shared backend:
    {!Diskswap} is the disk, this module the policy. *)

open Lp_heap

type t

val create :
  store:Store.t ->
  swap:Diskswap.t ->
  controller:Lp_core.Controller.t ->
  stats:Gc_stats.t ->
  t
(** The policy over one VM's components. It keeps its walk buffers and
    the last retention pass's inputs; everything else it reads from the
    components. *)

val capture_hooks : t -> (Collector.edge -> unit) * (unit -> unit)
(** The [on_poison] and [before_sweep] hooks for one collection's
    {!Lp_core.Controller.collect}. [on_poison] records each edge the
    mark prunes. [before_sweep] takes the collection's poisoned targets
    ({!poisoned_targets}) and stores an image of every dying object
    reachable from a pruned edge's target or a poisoned target, through
    the forwarding table and the dying objects' fields. The walk is
    breadth first, the pruned targets (newest first) then the poisoned
    ones enqueued in that order, so the order of the [Image_capture]
    events, and which write an injected Swap fault lands on, is fixed.
    A dying object whose id already has an image is not imaged again. *)

val retain : t -> unit
(** After the collection whose hooks {!capture_hooks} gave: drops every
    image no live poisoned word reaches, directly or through the
    references of another retained image. Skipped when neither the
    poisoned targets nor the swap store's generation changed since the
    last pass, as such a pass would drop nothing. *)

val poisoned_targets : Store.t -> Collector.t -> int list
(** The targets of the non-null poisoned words held by the objects the
    engine's last collection marked, in (object id, field) order: what a
    walk over every marked object's fields would find. It is built from
    the collector's poison holders ({!Lp_heap.Collector.poison_holders},
    which it sorts in place) and reads their current words, so after a
    collection it is exact until the program writes a word or
    allocates. *)

val restore :
  t ->
  collect:(unit -> unit) ->
  Heap_obj.t ->
  field:int ->
  (Heap_obj.t, Lp_core.Errors.resurrection_failure) result
(** [restore t ~collect src ~field] recovers the target of the poisoned
    word in field [field] of [src]. If the pruned target was already
    resurrected through a sibling reference, the word is rewired to the
    forwarded copy; if it never died at all (it survived through another
    live path, so no image was captured), the word is simply
    un-poisoned. Otherwise its swap image is loaded and validated (torn
    or corrupt images yield the corresponding
    {!Lp_core.Errors.resurrection_failure}) and the object is
    re-allocated; while it does not fit, [collect] runs a full
    collection, at most 4 times, before [Reallocation_exhausted]. Its
    fields are restored — a plain reference only when its target is
    live with the class recorded at capture time, everything else
    re-poisoned (counted in [Gc_stats.words_repoisoned]) — its image is
    dropped for a forward to the new id, and misprediction feedback
    ({!Lp_core.Controller.note_misprediction}) is given. On [Ok] the
    triggering word is already rewired (unless the collections freed
    [src]) and the load can be retried. *)
