(** Simulated heap objects.

    An object has an identity, a class, a one-word header, a row of
    reference fields (tagged {!Word.t} values) and an opaque scalar
    payload that only contributes bytes. Sizes follow the 32-bit layout
    of the paper's platform: a two-word (8-byte) header plus one 4-byte
    word per reference field plus the scalar payload.

    A value of type {!t} is a handle: an immediate int, not an OCaml
    block, as a reference in the paper's VM is just an address. It packs
    the object's identifier (its {!index}, the slot it occupies in the
    {!Store}) with the {!generation} of that slot, which the store bumps
    each time it reuses the identifier; so a handle kept past its
    object's death does not name the next object with the same
    identifier. The header, class, size and reference fields live in
    the {!Store}, in arrays indexed by the identifier, and are read and
    written through it ({!Store.header}, {!Store.class_of},
    {!Store.size_bytes}, {!Store.field}, {!Store.set_field}). *)

type t = private { id : int } [@@unboxed]
(** [id] is the handle's packed bits, [generation lsl 32 lor index]. It
    equals the identifier only for a slot's first object; read the
    identifier with {!index}. *)

val index : t -> int
(** The object's identifier: unique while the object is live, recycled
    once it is freed (see {!Store}). Words, roots, events and swap images
    name objects by it. *)

val generation : t -> int
(** How many times the store had reused the identifier when it handed
    this object out, modulo [max_generation + 1]. *)

val max_index : int
(** [2{^32} - 1], the largest identifier and the mask of a handle's
    index bits. A store refuses to grow past it. *)

val max_generation : int
(** [2{^30} - 1]. Generations wrap past it to 0, so a handle that
    outlives [2{^30}] reuses of its identifier would read as live again;
    with 30 bits a handle stays a non-negative int. *)

val pack : index:int -> generation:int -> t
(** The handle of [index] at [generation], both within their bounds.
    Only the {!Store} hands out handles. *)

val next_generation : int -> int
(** The generation after [g], wrapping to 0 past {!max_generation}. *)

val word_size : int
(** 4, as on the paper's 32-bit platforms. *)

val header_bytes : int
(** 8: a two-word header. *)

val size_of : n_fields:int -> scalar_bytes:int -> int
(** Footprint of an object with [n_fields] reference slots and
    [scalar_bytes] of payload. *)
