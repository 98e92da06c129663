(** CRC-32 with the reflected IEEE 802.3 polynomial, the checksum a
    real swap file format would use. Every swap image, offload payload
    and checkpoint frame carries one, and the strict heap verifier
    recomputes it for every stored image at every check.

    The loop is slicing-by-4: it reads one little-endian int32 per step
    and advances the state with four independent table loads, then
    finishes the last 0–3 bytes one at a time. Its 1,024-entry table is
    built on the first call, so a program that never checksums allocates
    nothing for it. Once the table exists, a call allocates nothing. *)

val of_bytes : bytes -> pos:int -> len:int -> int
(** [of_bytes buf ~pos ~len] is the CRC-32 of the [len] bytes of [buf]
    from [pos], in [0 .. 0xFFFFFFFF]. The check value of the nine bytes
    ["123456789"] is [0xCBF43926].
    @raise Invalid_argument when the range does not lie inside the
    buffer. *)
