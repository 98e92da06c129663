(* Entry [n] of slice [k] is [table.((256 * k) + n)]: slice 0 is the
   byte-at-a-time table, and slice [k] advances slice [k - 1]'s entry by
   one more zero byte, so one step folds in four bytes. *)
let make_table () =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 3 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

(* Empty until the first checksum. *)
let table = ref [||]

let[@inline never] build_table () =
  let t = make_table () in
  table := t;
  t

external unsafe_get32 : bytes -> int -> int32 = "%caml_bytes_get32u"

external bswap32 : int32 -> int32 = "%bswap_int32"

(* The unsigned little-endian int32 at [i], read unboxed. *)
let[@inline] get_le32 buf i =
  Int32.to_int
    (if Sys.big_endian then bswap32 (unsafe_get32 buf i)
     else unsafe_get32 buf i)
  land 0xFFFFFFFF

(* The range is checked once, so both loops read unchecked: every read
   lies in [pos, pos + len), and every table index is masked into its
   slice (the state stays within 32 bits, so [x lsr 24] needs no
   mask). *)
let of_bytes buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Crc32.of_bytes: range out of bounds";
  let t =
    let t = !table in
    if Array.length t = 0 then build_table () else t
  in
  let c = ref 0xFFFFFFFF in
  let words_end = pos + (len land lnot 3) in
  let i = ref pos in
  while !i < words_end do
    let x = !c lxor get_le32 buf !i in
    c :=
      Array.unsafe_get t (768 + (x land 0xFF))
      lxor Array.unsafe_get t (512 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (x lsr 24);
    i := !i + 4
  done;
  for i = words_end to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get buf i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
