(** The mutator interface: reference loads through the read barrier.

    Every program read of a reference field goes through {!read}, which
    implements the paper's conditional read barrier (Section 4.1):

    - fast path: the reference's low bit is clear — return the target;
    - cold path (low bit set, first use since a collection scanned it):
      check the poison bit — a poisoned reference raises the
      [InternalError] carrying the averted [OutOfMemoryError]
      (Section 4.4); otherwise clear the low bit, record the target's
      staleness in the edge table when it was at least 2, and zero the
      target's stale counter.

    Under the disk baseline, the cold path also faults offloaded targets
    back from disk. Writes ({!write}) store a clean (untagged) word, as
    the VM initializes the bit to zero for all new references. *)

open Lp_heap

val read : Vm.t -> Heap_obj.t -> int -> Heap_obj.t option
(** [read vm src i] loads reference field [i] of [src] through the
    barrier. [None] for null.
    @raise Lp_core.Errors.Internal_error on a poisoned reference.
    @raise Lp_core.Errors.Heap_corruption when the word dangles (its
    target is not live) — the barrier quarantines the slot by poisoning
    it, so subsequent loads take the deterministic poisoned path.
    @raise Store.Dangling_reference if [src] was reclaimed (heap
    discipline violation). *)

val read_exn : Vm.t -> Heap_obj.t -> int -> Heap_obj.t
(** Like {!read} but null is a program error.
    @raise Invalid_argument on null. *)

val write : Vm.t -> Heap_obj.t -> int -> Heap_obj.t option -> unit
(** [write vm src i tgt] stores a reference (or null) into field [i]. *)

val write_obj : Vm.t -> Heap_obj.t -> int -> Heap_obj.t -> unit

val clear : Vm.t -> Heap_obj.t -> int -> unit
(** [clear vm src i] nulls field [i]. *)

val arraycopy :
  Vm.t -> src:Heap_obj.t -> src_pos:int -> dst:Heap_obj.t -> dst_pos:int -> len:int -> unit
(** The VM's [System.arraycopy] intrinsic for reference arrays: copies
    reference words wholesale — tag bits included, so poisoned
    references stay poisoned — without executing read barriers and
    without touching target staleness, as Jikes RVM's internal memory
    copy does. *)

val field_word : Vm.t -> Heap_obj.t -> int -> Word.t
(** The raw tagged word, read without a barrier (no staleness effects,
    no exception); for tests and diagnostics only — a real program
    cannot observe the poison bit. *)
