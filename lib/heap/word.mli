(** Tagged reference words.

    The simulated heap stores object-to-object references as integer words
    that carry the two tag bits leak pruning needs (paper Sections 4.1 and
    4.3). Objects are "word aligned" by construction: an object identifier
    occupies the bits above the two tags.

    - bit 0 ("untouched" bit): set by the collector on every
      object-to-object reference it scans; cleared by the read barrier the
      first time the program uses the reference after a collection. A set
      bit is what sends the barrier to its out-of-line cold path.
    - bit 1 ("poison" bit): set (together with bit 0) when leak pruning
      prunes the reference. The collector never traces a poisoned
      reference, and the barrier intercepts any program access to one.

    The null reference is the word [0]; object identifiers therefore start
    at 1. *)

type t = int

val null : t
(** The null reference word. *)

val is_null : t -> bool

val of_id : int -> t
(** [of_id id] is a clean (untagged) reference to object [id].
    @raise Invalid_argument unless [1 <= id <= Heap_obj.max_index]: a
    handle's packed bits are not an identifier. *)

val target : t -> int
(** [target w] is the identifier of the object [w] refers to, ignoring tag
    bits. Meaningless for [null]. *)

val untouched : t -> bool
(** [untouched w] is true when bit 0 is set, i.e. the reference has not
    been used by the program since the last collection scanned it. *)

val set_untouched : t -> t
val clear_untouched : t -> t

val poisoned : t -> bool
(** [poisoned w] is true when bit 1 is set. *)

val poison : t -> t
(** [poison w] sets both tag bits, invalidating the reference as in paper
    Section 4.3. *)

val pp : Format.formatter -> t -> unit
