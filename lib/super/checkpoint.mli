(** Controller-brain checkpoints.

    A checkpoint persists what a tenant's controller has {e learned}
    ({!Lp_core.Controller.brain}) so a supervised warm restart can
    restore it into a fresh VM. A checkpoint is a {!Lp_runtime.Frame}
    with magic ["LC"] and version 2, as swap images are frames with
    magic ["LP"] (see {!Lp_runtime.Frame} for the prelude's layout).

    The payload is ten little-endian int32s (four controller counters,
    six state-machine words), then the edge section and the pruned-type
    section, each a count followed by entries whose class names are
    length-prefixed strings. No class id is stored: the importing VM
    resolves every name itself ({!Lp_core.Controller.import_brain}).

    {!decode} is total: torn frames, bit rot, foreign version bytes and
    structurally impossible payloads all come back as typed errors —
    the caller falls back to a cold boot, never undefined behaviour. *)

type error =
  | Torn of { expected_bytes : int; actual_bytes : int }
      (** frame shorter (or longer) than its declared length *)
  | Crc_mismatch
      (** payload bytes do not match the stored CRC, or the magic or
          reserved byte is wrong *)
  | Version_unsupported of int
  | Malformed of string
      (** CRC-valid but structurally impossible (unknown state tag,
          negative count, section overrun) *)

val error_to_string : error -> string
(** Short tag for events and reports, e.g. ["crc-mismatch"]. *)

val encode : Lp_core.Controller.brain -> bytes
(** Deterministic: equal brains encode to equal bytes. *)

val decode : bytes -> (Lp_core.Controller.brain, error) result
(** Never raises. *)

val tear : bytes -> keep:int -> bytes
(** Fault injection: the first [keep] bytes, as if the process died
    mid-write. *)

val corrupt : bytes -> pos:int -> bytes
(** Fault injection: a copy with one bit flipped at [pos]. *)
