(** Crash-consistent swap images of pruned or offloaded objects.

    When a PRUNE collection poisons a reference, the target data
    structure is about to be reclaimed — the paper treats that memory as
    gone for good. The resurrection subsystem instead serializes each
    doomed object into a self-validating {e swap image} before the sweep,
    so a later program access to the poisoned reference (a misprediction)
    can be recovered instead of killing the session.

    An image is a standalone byte string: a {!Frame} with magic ["LP"]
    (see {!Frame} for the prelude's layout). The payload records the
    object identifier, class, staleness, scalar size and every field
    word, plus — for each non-null reference — the class of the
    referent at capture time. Storing referent classes makes
    restoration safe against identifier recycling: a reference is only
    rewired to a live object whose class still matches; otherwise it is
    re-poisoned.

    The frame's length prefix and CRC make the two injected storage
    faults distinguishable on load: a {e torn write} (the image was cut
    short) fails the length check, and {e bit rot} (bytes flipped in
    place) fails the CRC. Decoding never throws — every corruption mode
    maps onto {!Lp_core.Errors.resurrection_failure}. *)

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

val capture : Lp_heap.Store.t -> int -> bytes
(** [capture store id] is the image of the live object [id], written
    straight from the store: no {!t} is built. Referent classes are read
    from the store; a reference whose target no longer exists records
    class [-1]. The bytes equal {!encode} of the same object's record.
    @raise Lp_heap.Store.Dangling_reference unless [id] is live. *)

val encode : t -> bytes
(** The image of a record, written by the same writer as {!capture}. *)

val validate : bytes -> (int, Lp_core.Errors.resurrection_failure) result
(** Checks the frame ({!Frame.check}; a bad magic or reserved byte is
    [Image_crc_mismatch]), then that the payload holds exactly its
    field count's fields, and returns that count. Total: any byte
    string yields [Ok] or a structured failure, never an exception. *)

val decode : bytes -> (t, Lp_core.Errors.resurrection_failure) result
(** {!validate}, then deserializes: fails exactly when {!validate} does,
    with the same failure. *)

val stored_object_id : bytes -> int
(** The object identifier recorded in bytes that passed {!validate},
    read in place. *)

val refs_equal : bytes -> int array -> bool
(** [refs_equal buf refs] is [stored_refs buf = refs] for bytes that
    passed {!validate}, with no array built. *)

val stored_refs : bytes -> int array
(** The targets of the non-null reference words (poisoned ones
    included), in field order, of bytes that passed {!validate}, read
    in place: the identifiers image retention follows from the image. *)

val tear : bytes -> keep:int -> bytes
(** [tear img ~keep] models a torn write: the first [keep] bytes of the
    image, as if the process died mid-write. [keep] is clamped to
    [0 .. length img - 1]. *)

val corrupt : bytes -> pos:int -> bytes
(** [corrupt img ~pos] flips the low bit of the byte at [pos] (clamped
    into the payload region), modelling at-rest bit rot. *)
