open Lp_heap

type field = { word : Word.t; referent_class : int }

type t = {
  object_id : int;
  class_id : Class_registry.id;
  stale : int;
  scalar_bytes : int;
  fields : field array;
}

let version = 1

let header_bytes = 12

let magic0 = 'L'

let magic1 = 'P'

(* CRC-32, IEEE 802.3 polynomial (reflected 0xEDB88320) — the same
   checksum a real swap file format would use, table-driven. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* The range is checked once, so the byte loop reads unchecked: every
   [i] lies in [pos, pos + len) and every table index is masked into
   [0, 255]. *)
let crc32 buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Swap_image.crc32: range out of bounds";
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get crc_table
        ((!c lxor Char.code (Bytes.unsafe_get buf i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let capture store (obj : Heap_obj.t) =
  let id = obj.Heap_obj.id in
  let fields =
    Array.init (Store.n_fields store id) (fun i ->
        let w = Store.field store id i in
        if Word.is_null w then { word = Word.null; referent_class = -1 }
        else
          let tgt = Word.target w in
          let referent_class =
            if Store.mem store tgt then Store.class_of store tgt else -1
          in
          { word = w; referent_class })
  in
  {
    object_id = id;
    class_id = Store.class_of store id;
    stale = Store.stale store id;
    scalar_bytes = Store.scalar_bytes store obj;
    fields;
  }

(* Payload: five fixed int32s, then two int32s per field. *)
let payload_bytes t = 20 + (8 * Array.length t.fields)

let[@inline] field_offset i = header_bytes + 20 + (8 * i)

(* A little-endian int32 of the image, read back sign-extended. *)
let[@inline] get buf off = Int32.to_int (Bytes.get_int32_le buf off)

let encoded_bytes t = header_bytes + payload_bytes t

let encode t =
  let payload_len = payload_bytes t in
  let buf = Bytes.create (header_bytes + payload_len) in
  let put off v = Bytes.set_int32_le buf off (Int32.of_int v) in
  Bytes.set buf 0 magic0;
  Bytes.set buf 1 magic1;
  Bytes.set buf 2 (Char.chr version);
  Bytes.set buf 3 '\000';
  put 4 payload_len;
  put header_bytes t.object_id;
  put (header_bytes + 4) t.class_id;
  put (header_bytes + 8) t.stale;
  put (header_bytes + 12) t.scalar_bytes;
  put (header_bytes + 16) (Array.length t.fields);
  Array.iteri
    (fun i f ->
      let off = field_offset i in
      put off f.word;
      put (off + 4) f.referent_class)
    t.fields;
  put 8 (crc32 buf ~pos:header_bytes ~len:payload_len);
  buf

let validate buf =
  let len = Bytes.length buf in
  if len < header_bytes then
    Error
      (Lp_core.Errors.Image_torn
         { expected_bytes = header_bytes; actual_bytes = len })
  else if Bytes.get buf 0 <> magic0 || Bytes.get buf 1 <> magic1 then
    (* the prelude itself is rotten; there is no checksum to compare so
       this reports as a checksum-class failure *)
    Error Lp_core.Errors.Image_crc_mismatch
  else
    let v = Char.code (Bytes.get buf 2) in
    if v <> version then Error (Lp_core.Errors.Image_version_unsupported v)
    else
      let payload_len = get buf 4 in
      let expected = header_bytes + payload_len in
      if payload_len < 20 || len <> expected then
        Error
          (Lp_core.Errors.Image_torn
             { expected_bytes = expected; actual_bytes = len })
      else if
        (* the stored int32 reads back sign-extended; compare unsigned *)
        get buf 8 land 0xFFFFFFFF <> crc32 buf ~pos:header_bytes ~len:payload_len
      then
        Error Lp_core.Errors.Image_crc_mismatch
      else
        let n_fields = get buf (header_bytes + 16) in
        if n_fields < 0 || payload_len <> 20 + (8 * n_fields) then
          (* structurally impossible given a valid CRC, but decoding stays
             total rather than trusting arithmetic on attacker bytes *)
          Error Lp_core.Errors.Image_crc_mismatch
        else Ok n_fields

let decode buf =
  match validate buf with
  | Error _ as e -> e
  | Ok n_fields ->
    Ok
      {
        object_id = get buf header_bytes;
        class_id = get buf (header_bytes + 4);
        stale = get buf (header_bytes + 8);
        scalar_bytes = get buf (header_bytes + 12);
        fields =
          Array.init n_fields (fun i ->
              let off = field_offset i in
              { word = get buf off; referent_class = get buf (off + 4) });
      }

let stored_object_id buf = get buf header_bytes

(* [refs (decode buf) = refs], read off the bytes: the non-null words
   in field order against [refs], with no image built. *)
let refs_equal buf refs =
  let n_fields = get buf (header_bytes + 16) in
  let n_refs = Array.length refs in
  let rec go i k =
    if i = n_fields then k = n_refs
    else
      let w = get buf (field_offset i) in
      if Word.is_null w then go (i + 1) k
      else k < n_refs && refs.(k) = Word.target w && go (i + 1) (k + 1)
  in
  go 0 0

let refs t =
  let n = ref 0 in
  Array.iter (fun f -> if not (Word.is_null f.word) then incr n) t.fields;
  let out = Array.make !n 0 in
  let k = ref 0 in
  Array.iter
    (fun f ->
      if not (Word.is_null f.word) then begin
        out.(!k) <- Word.target f.word;
        incr k
      end)
    t.fields;
  out

let tear buf ~keep =
  let keep = max 0 (min keep (Bytes.length buf - 1)) in
  Bytes.sub buf 0 keep

let corrupt buf ~pos =
  let len = Bytes.length buf in
  let pos = if len <= header_bytes then max 0 (min pos (len - 1)) else header_bytes + (max 0 pos mod (len - header_bytes)) in
  let buf = Bytes.copy buf in
  Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor 1));
  buf
