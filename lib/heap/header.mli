(** Object header bits.

    Every simulated object carries a one-word header analogous to the
    Jikes RVM header the paper modifies. The layout is:

    - bit 0: mark bit (set while the object is reachable in the current
      collection; cleared by the sweep).
    - bit 1: stale-mark bit (set when the object was reached by the
      {e stale} transitive closure of the SELECT state rather than the
      in-use closure; diagnostic only, cleared with the mark bit).
    - bits 2-4: the three-bit logarithmic stale counter of Section 4.1. A
      value [k] means the program last used the object approximately
      [2^k] full-heap collections ago. The counter saturates at 7.
    - bit 5: the object has a finalizer.
    - bit 6: the finalizer has already been enqueued.
    - bit 7: the object is a statics container. References out of a
      statics container stand in for root references (in Jikes RVM,
      statics live in the JTOC and are scanned as roots), so leak pruning
      never treats them as candidates: roots cannot be pruned.
    - bit 8: the object lives in the nursery (generational mode). Minor
      collections examine only nursery objects; survivors are promoted
      by clearing the bit.
    - bit 9: the object's payload is resident on the offload disk. Set
      when the swap store offloads the object and cleared when the read
      barrier faults it back in, so the barrier's fast path tests this
      bit instead of looking the object up in the residency table. While
      the VM is between collections, the live objects carrying it are
      exactly the disk-resident ones.

    A slot with no live object holds {!free} instead of a header: a
    negative word, which no combination of the bits above can form. *)

type t = int

val empty : t

val free : t
(** The word a free slot holds in the store's header array. *)

val is_free : t -> bool
(** True for {!free} (any negative word), false for every header. *)

val marked : t -> bool
val set_marked : t -> t

val stale_marked : t -> bool
val set_stale_marked : t -> t

val clear_gc_bits : t -> t
(** Clears both the mark and stale-mark bits. *)

val stale_counter : t -> int
(** Current value of the stale counter, in [0, 7]. *)

val with_stale_counter : t -> int -> t
(** [with_stale_counter h k] sets the counter to [k].
    @raise Invalid_argument if [k] is outside [0, 7]. *)

val max_stale : int
(** The saturation value, 7. *)

val finalizable : t -> bool
val set_finalizable : t -> t

val finalizer_enqueued : t -> bool
val set_finalizer_enqueued : t -> t

val statics_container : t -> bool
val set_statics_container : t -> t

val in_nursery : t -> bool
val set_in_nursery : t -> t
val clear_in_nursery : t -> t

val on_disk : t -> bool
val set_on_disk : t -> t
val clear_on_disk : t -> t

val pp : Format.formatter -> t -> unit
