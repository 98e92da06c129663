(** Controller-brain checkpoints.

    A checkpoint persists what a tenant's controller has {e learned}
    ({!Lp_core.Controller.brain}) so a supervised warm restart can
    restore it into a fresh VM. The byte format follows the
    crash-consistent framing of {!Lp_runtime.Swap_image}:

    {v
    offset  size  field
    0       2     magic "LC"
    2       1     format version (2)
    3       1     reserved (zero)
    4       4     payload length, little-endian int32
    8       4     CRC-32 of the payload (Lp_runtime.Crc32), little-endian
    12      n     payload
    v}

    The payload is ten little-endian int32s (four controller counters,
    six state-machine words), then the edge section and the pruned-type
    section, each a count followed by entries whose class names are
    length-prefixed strings. No class id is stored: the importing VM
    resolves every name itself ({!Lp_core.Controller.import_brain}).

    {!decode} is total: torn frames, bit rot, foreign version bytes and
    structurally impossible payloads all come back as typed errors —
    the caller falls back to a cold boot, never undefined behaviour. *)

val version : int

val header_bytes : int

type error =
  | Torn of { expected_bytes : int; actual_bytes : int }
      (** frame shorter (or longer) than its declared length *)
  | Crc_mismatch  (** payload bytes do not match the stored CRC *)
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
