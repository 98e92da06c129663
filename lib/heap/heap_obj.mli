(** Simulated heap objects.

    An object has an identity, a class, a one-word header, a row of
    reference fields (tagged {!Word.t} values) and an opaque scalar
    payload that only contributes bytes. Sizes follow the 32-bit layout
    of the paper's platform: a two-word (8-byte) header plus one 4-byte
    word per reference field plus the scalar payload.

    A value of type {!t} is a handle: the identity alone. The header,
    class, size and reference fields live in the {!Store}, in arrays
    indexed by the identifier, and are read and written through it
    ({!Store.header}, {!Store.class_of}, {!Store.size_bytes},
    {!Store.field}, {!Store.set_field}). *)

type t = { id : int  (** unique while the object is live; see {!Store} *) }

val word_size : int
(** 4, as on the paper's 32-bit platforms. *)

val header_bytes : int
(** 8: a two-word header. *)

val size_of : n_fields:int -> scalar_bytes:int -> int
(** Footprint of an object with [n_fields] reference slots and
    [scalar_bytes] of payload. *)
