let header_bytes = 12

let create ~magic1 ~version ~payload_len =
  let buf = Bytes.create (header_bytes + payload_len) in
  Bytes.set buf 0 'L';
  Bytes.set buf 1 magic1;
  Bytes.set buf 2 (Char.chr version);
  Bytes.set buf 3 '\000';
  Bytes.set_int32_le buf 4 (Int32.of_int payload_len);
  buf

let payload_crc buf =
  Crc32.of_bytes buf ~pos:header_bytes ~len:(Bytes.length buf - header_bytes)

let seal buf = Bytes.set_int32_le buf 8 (Int32.of_int (payload_crc buf))

type error =
  | Torn of { expected_bytes : int; actual_bytes : int }
  | Crc_mismatch
  | Version_unsupported of int

let check buf ~magic1 ~version ~min_payload =
  let len = Bytes.length buf in
  if len < header_bytes then
    Error (Torn { expected_bytes = header_bytes; actual_bytes = len })
  else if
    Bytes.get buf 0 <> 'L' || Bytes.get buf 1 <> magic1 || Bytes.get buf 3 <> '\000'
  then Error Crc_mismatch
  else
    let v = Char.code (Bytes.get buf 2) in
    if v <> version then Error (Version_unsupported v)
    else
      let payload_len = Int32.to_int (Bytes.get_int32_le buf 4) in
      let expected = header_bytes + payload_len in
      if payload_len < min_payload || len <> expected then
        Error (Torn { expected_bytes = expected; actual_bytes = len })
      else if
        (* the stored int32 reads back sign-extended; compare unsigned *)
        Int32.to_int (Bytes.get_int32_le buf 8) land 0xFFFFFFFF
        <> payload_crc buf
      then Error Crc_mismatch
      else Ok ()
