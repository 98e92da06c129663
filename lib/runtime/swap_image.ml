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

let magic1 = 'P'

let header_bytes = Frame.header_bytes

(* Payload: five fixed int32s, then two int32s per field. *)
let[@inline] field_offset i = header_bytes + 20 + (8 * i)

(* A little-endian int32 of the image, read back sign-extended. *)
let[@inline] get buf off = Int32.to_int (Bytes.get_int32_le buf off)

let[@inline] put buf off v = Bytes.set_int32_le buf off (Int32.of_int v)

(* The one writer of the payload layout, for both sources of an image:
   the five fixed int32s, then field [i]'s word and referent class,
   which [put_field src (first + i) buf off] puts at [off]. It allocates
   the image and nothing else. *)
let write ~object_id ~class_id ~stale ~scalar_bytes ~n_fields src ~first
    put_field =
  let buf =
    Frame.create ~magic1 ~version ~payload_len:(20 + (8 * n_fields))
  in
  put buf header_bytes object_id;
  put buf (header_bytes + 4) class_id;
  put buf (header_bytes + 8) stale;
  put buf (header_bytes + 12) scalar_bytes;
  put buf (header_bytes + 16) n_fields;
  for i = 0 to n_fields - 1 do
    put_field src (first + i) buf (field_offset i)
  done;
  Frame.seal buf;
  buf

let put_record_field fields i buf off =
  let f = fields.(i) in
  put buf off f.word;
  put buf (off + 4) f.referent_class

let encode t =
  write ~object_id:t.object_id ~class_id:t.class_id ~stale:t.stale
    ~scalar_bytes:t.scalar_bytes ~n_fields:(Array.length t.fields) t.fields
    ~first:0 put_record_field

(* Word [k] of the store's word array, with the class of its referent
   now, or -1 when the word is null or its target is not live. *)
let put_store_field store k buf off =
  let w = (Store.words store).(k) in
  put buf off w;
  put buf (off + 4)
    (if Word.is_null w then -1
     else
       let tgt = Word.target w in
       if Store.mem store tgt then Store.class_of store tgt else -1)

let capture store id =
  let obj = Store.get store id in
  let e = Store.extent store id in
  write ~object_id:id ~class_id:(Store.class_of store id)
    ~stale:(Store.stale store id) ~scalar_bytes:(Store.scalar_bytes store obj)
    ~n_fields:(Store.extent_count e) store ~first:(Store.extent_offset e)
    put_store_field

let validate buf =
  match Frame.check buf ~magic1 ~version ~min_payload:20 with
  | Error (Frame.Torn { expected_bytes; actual_bytes }) ->
    Error (Lp_core.Errors.Image_torn { expected_bytes; actual_bytes })
  | Error Frame.Crc_mismatch -> Error Lp_core.Errors.Image_crc_mismatch
  | Error (Frame.Version_unsupported v) ->
    Error (Lp_core.Errors.Image_version_unsupported v)
  | Ok () ->
    let n_fields = get buf (header_bytes + 16) in
    if n_fields < 0 || Bytes.length buf <> field_offset n_fields then
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

(* [stored_refs buf = refs], read off the bytes: the non-null words in
   field order against [refs], with no array built. *)
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

(* Counts the non-null words, then fills the array: no list, no
   image. *)
let stored_refs buf =
  let n_fields = get buf (header_bytes + 16) in
  let n = ref 0 in
  for i = 0 to n_fields - 1 do
    if not (Word.is_null (get buf (field_offset i))) then incr n
  done;
  let out = Array.make !n 0 in
  let k = ref 0 in
  for i = 0 to n_fields - 1 do
    let w = get buf (field_offset i) in
    if not (Word.is_null w) then begin
      out.(!k) <- Word.target w;
      incr k
    end
  done;
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
