exception Table_full

let slots = 16384

let words_per_slot = 4

let size_bytes = slots * words_per_slot * 4

(* The slots live in [page_count] pages of [page_slots] slots each,
   a page allocated at the first insert into one of its slots ([||]
   until then, every slot of it empty). A page holds its slots' four
   words side by side: slot [i]'s source class, target class,
   [maxstaleuse] and [bytesused] are words [4k] to [4k + 3] of page
   [i / page_slots], where [k = i mod page_slots]. A source class of -1
   marks an empty slot. [occupied] lists the occupied slots in
   ascending order (its first [entries] cells), so every walk costs
   what the table holds rather than its capacity. *)
let page_bits = 9

let page_slots = 1 lsl page_bits

let page_count = slots / page_slots

type t = {
  pages : int array array;
  mutable occupied : int array;
  mutable entries : int;
}

let create () = { pages = Array.make page_count [||]; occupied = [||]; entries = 0 }

(* The page holding slot [i] and the index of the slot's first word in
   it. A page not yet allocated is [||]; only [src_class] meets one, on
   a probe path, and reads it as empty. Every other accessor is called
   for occupied slots, whose page exists. *)
let[@inline] page t i = t.pages.(i lsr page_bits)

let[@inline] base i = words_per_slot * (i land (page_slots - 1))

let[@inline] src_class t i =
  let p = page t i in
  if Array.length p = 0 then -1 else p.(base i)

let[@inline] tgt_class t i = (page t i).(base i + 1)

let[@inline] max_stale_use_at t i = (page t i).(base i + 2)

let[@inline] bytes_used_at t i = (page t i).(base i + 3)

let[@inline] set_max_stale_use t i v = (page t i).(base i + 2) <- v

let[@inline] set_bytes_used t i v = (page t i).(base i + 3) <- v

let hash ~src ~tgt =
  (* Fibonacci-style integer mixing; must be deterministic across runs. *)
  let h = (src * 0x9E3779B1) lxor (tgt * 0x85EBCA77) in
  (h land max_int) mod slots

(* Linear probing. Returns the slot holding (src, tgt) as [i >= 0], or
   the first empty slot [i] on the probe path as [-i - 1], or raises
   Table_full. A slot of a page not yet allocated is empty. *)
let probe t ~src ~tgt =
  let rec loop i steps =
    if steps = slots then raise Table_full
    else
      let s = src_class t i in
      if s = -1 then -i - 1
      else if s = src && tgt_class t i = tgt then i
      else loop (if i = slots - 1 then 0 else i + 1) (steps + 1)
  in
  loop (hash ~src ~tgt) 0

(* Records [i] in [occupied], keeping it ascending. New edge types are
   rare, so the shift is paid seldom. *)
let note_occupied t i =
  let n = t.entries in
  if n = Array.length t.occupied then begin
    let grown = Array.make (min slots (max 16 (2 * n))) 0 in
    Array.blit t.occupied 0 grown 0 n;
    t.occupied <- grown
  end;
  (* binary search for the first cell holding a slot above [i] *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.occupied.(mid) < i then lo := mid + 1 else hi := mid
  done;
  Array.blit t.occupied !lo t.occupied (!lo + 1) (n - !lo);
  t.occupied.(!lo) <- i;
  t.entries <- n + 1

let find_or_add t ~src ~tgt =
  let p = probe t ~src ~tgt in
  if p >= 0 then p
  else begin
    let i = -p - 1 in
    if Array.length (page t i) = 0 then
      t.pages.(i lsr page_bits) <- Array.make (words_per_slot * page_slots) (-1);
    let page = page t i and b = base i in
    page.(b) <- src;
    page.(b + 1) <- tgt;
    page.(b + 2) <- 0;
    page.(b + 3) <- 0;
    note_occupied t i;
    i
  end

let record_stale_use t ~src ~tgt ~stale =
  let i = find_or_add t ~src ~tgt in
  if stale > max_stale_use_at t i then set_max_stale_use t i stale

(* A misprediction decays the controller's confidence in pruning this
   edge type: raising maxstaleuse to the pruned staleness plus the
   candidate slack means the same references no longer qualify
   (selection requires stale >= maxstaleuse + slack). *)
let protect t ~src ~tgt ~min_stale_use =
  let i = find_or_add t ~src ~tgt in
  if min_stale_use > max_stale_use_at t i then
    set_max_stale_use t i min_stale_use

(* Checkpoint import: install an entry wholesale. Unlike [protect] this
   also lowers [maxstaleuse] — the checkpoint is authoritative for the
   incarnation being restored. *)
let load_entry t ~src ~tgt ~max_stale_use ~bytes_used =
  let i = find_or_add t ~src ~tgt in
  set_max_stale_use t i max_stale_use;
  set_bytes_used t i bytes_used

let max_stale_use t ~src ~tgt =
  if t.entries = 0 then 0
  else
    let i = probe t ~src ~tgt in
    if i >= 0 then max_stale_use_at t i else 0

let add_bytes t ~src ~tgt n =
  let i = find_or_add t ~src ~tgt in
  set_bytes_used t i (bytes_used_at t i + n)

let bytes_used t ~src ~tgt =
  if t.entries = 0 then 0
  else
    let i = probe t ~src ~tgt in
    if i >= 0 then bytes_used_at t i else 0

(* Ties break on the lexicographically least (src, tgt) class pair —
   NOT on slot index, which depends on insertion order under hash
   collisions. A warm-restarted table loads its imported entries in
   class-name order before any collection adds one, so the same entries
   can sit in other slots than in a table that learned them itself;
   the winner must be a function of the entries alone. *)
let select_max_bytes t =
  let best = ref (-1) in
  for k = 0 to t.entries - 1 do
    let i = t.occupied.(k) in
    let bytes = bytes_used_at t i in
    if bytes > 0 then begin
      let b = !best in
      if
        b < 0
        || bytes > bytes_used_at t b
        || bytes = bytes_used_at t b
           && (src_class t i < src_class t b
              || src_class t i = src_class t b
                 && tgt_class t i < tgt_class t b)
      then best := i
    end
  done;
  let b = !best in
  if b < 0 then None
  else Some (src_class t b, tgt_class t b, bytes_used_at t b)

let reset_bytes t =
  for k = 0 to t.entries - 1 do
    set_bytes_used t t.occupied.(k) 0
  done

let decay_max_stale_use t =
  for k = 0 to t.entries - 1 do
    let i = t.occupied.(k) in
    set_max_stale_use t i (max_stale_use_at t i / 2)
  done

let entry_count t = t.entries

let iter t f =
  for k = 0 to t.entries - 1 do
    let i = t.occupied.(k) in
    f ~src:(src_class t i) ~tgt:(tgt_class t i)
      ~max_stale_use:(max_stale_use_at t i) ~bytes_used:(bytes_used_at t i)
  done
