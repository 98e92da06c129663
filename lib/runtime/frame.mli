(** The checksummed frame of every persisted byte string: swap images
    and offload payloads ({!Swap_image}, magic ["LP"]) and controller
    checkpoints ([Lp_super.Checkpoint], magic ["LC"]). Each format owns
    its payload; this module owns the prelude before it:

    {v
    offset  size  field
    0       2     magic: 'L', then the format's own byte
    2       1     format version
    3       1     reserved (zero)
    4       4     payload length in bytes, little-endian int32
    8       4     CRC-32 of the payload ({!Crc32}), little-endian int32
    12      n     payload
    v}

    A torn write fails the length check; bit rot fails the CRC. *)

val header_bytes : int
(** Size of the prelude (12). *)

val create : magic1:char -> version:int -> payload_len:int -> bytes
(** A frame with its prelude written but for the CRC, which {!seal}
    writes once the caller has filled the payload. *)

val seal : bytes -> unit
(** Writes the CRC-32 of the payload into the prelude. *)

type error =
  | Torn of { expected_bytes : int; actual_bytes : int }
  | Crc_mismatch
      (** also a wrong magic or reserved byte: no checksum to trust *)
  | Version_unsupported of int

val check :
  bytes -> magic1:char -> version:int -> min_payload:int -> (unit, error) result
(** Checks the magic and reserved byte, the version, the length (at
    least [min_payload] payload bytes, exactly as many as declared) and
    the CRC, in that order. Never raises; allocates nothing on [Ok]. *)
