(** Crash-consistent swap images of pruned or offloaded objects.

    When a PRUNE collection poisons a reference, the target data
    structure is about to be reclaimed — the paper treats that memory as
    gone for good. The resurrection subsystem instead serializes each
    doomed object into a self-validating {e swap image} before the sweep,
    so a later program access to the poisoned reference (a misprediction)
    can be recovered instead of killing the session.

    An image is a standalone byte string:

    {v
    offset 0   magic "LP" (2 bytes)
    offset 2   format version (1 byte)
    offset 3   reserved (1 byte, zero)
    offset 4   payload length in bytes (LE int32)
    offset 8   CRC-32 of the payload (LE int32)
    offset 12  payload
    v}

    The payload records the object identifier, class, staleness, scalar
    size and every field word, plus — for each non-null reference — the
    class of the referent at capture time. Storing referent classes makes
    restoration safe against identifier recycling: a reference is only
    rewired to a live object whose class still matches; otherwise it is
    re-poisoned.

    The length prefix and trailing-payload CRC make the two injected
    storage faults distinguishable on load: a {e torn write} (the image
    was cut short) fails the length check, and {e bit rot} (bytes
    flipped in place) fails the CRC. Decoding never throws — every
    corruption mode maps onto {!Lp_core.Errors.resurrection_failure}. *)

type field = {
  word : Lp_heap.Word.t;  (** the raw field word, tag bits included *)
  referent_class : int;
      (** class id of the referent at capture time, or [-1] when the
          word is null *)
}

type t = {
  object_id : int;
  class_id : Lp_heap.Class_registry.id;
  stale : int;  (** staleness counter at capture time *)
  scalar_bytes : int;
  fields : field array;
}

val version : int
(** Current format version (1). *)

val header_bytes : int
(** Size of the fixed prelude before the payload (12). *)

val capture :
  Lp_heap.Store.t -> Lp_heap.Heap_obj.t -> t
(** Snapshot a live object. Referent classes are read from the store;
    a reference whose target no longer exists records class [-1]. *)

val encode : t -> bytes

val validate : bytes -> (int, Lp_core.Errors.resurrection_failure) result
(** Checks magic, version, length and CRC, in that order, and returns
    the image's field count. Total: any byte string yields [Ok] or a
    structured failure, never an exception. *)

val decode : bytes -> (t, Lp_core.Errors.resurrection_failure) result
(** {!validate}, then deserializes: fails exactly when {!validate} does,
    with the same failure. *)

val stored_object_id : bytes -> int
(** The object identifier recorded in bytes that passed {!validate},
    read in place. *)

val refs_equal : bytes -> int array -> bool
(** [refs_equal buf refs] is [refs img = refs] for the image [img] that
    bytes which passed {!validate} decode to, read in place without
    building it. *)

val refs : t -> int array
(** The targets of the image's non-null reference words (poisoned ones
    included), in field order: the identifiers image retention follows
    from this image. *)

val tear : bytes -> keep:int -> bytes
(** [tear img ~keep] models a torn write: the first [keep] bytes of the
    image, as if the process died mid-write. [keep] is clamped to
    [0 .. length img - 1]. *)

val corrupt : bytes -> pos:int -> bytes
(** [corrupt img ~pos] flips the low bit of the byte at [pos] (clamped
    into the payload region), modelling at-rest bit rot. *)

val crc32 : bytes -> pos:int -> len:int -> int
(** CRC-32 (IEEE 802.3 polynomial) of a byte range, exposed for tests.
    @raise Invalid_argument when the range does not lie inside the
    buffer. *)
