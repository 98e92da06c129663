exception Table_full

let slots = 16384

let words_per_slot = 4

let size_bytes = slots * words_per_slot * 4

(* Four parallel arrays, one per slot word, allocated at the first
   insert ([||] until then). [src_classes.(i) = -1] marks an empty slot.
   [occupied] lists the occupied slots in ascending order (its first
   [entries] cells), so every walk costs what the table holds rather
   than its capacity. *)
type t = {
  mutable src_classes : int array;
  mutable tgt_classes : int array;
  mutable max_stale_uses : int array;
  mutable bytes_useds : int array;
  mutable occupied : int array;
  mutable entries : int;
}

let create () =
  {
    src_classes = [||];
    tgt_classes = [||];
    max_stale_uses = [||];
    bytes_useds = [||];
    occupied = [||];
    entries = 0;
  }

let hash ~src ~tgt =
  (* Fibonacci-style integer mixing; must be deterministic across runs. *)
  let h = (src * 0x9E3779B1) lxor (tgt * 0x85EBCA77) in
  (h land max_int) mod slots

(* Linear probing. Returns the slot holding (src, tgt) as [i >= 0], or
   the first empty slot [i] on the probe path as [-i - 1], or raises
   Table_full. Only called once the slot arrays exist. *)
let probe t ~src ~tgt =
  let rec loop i steps =
    if steps = slots then raise Table_full
    else if t.src_classes.(i) = -1 then -i - 1
    else if t.src_classes.(i) = src && t.tgt_classes.(i) = tgt then i
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
  if Array.length t.src_classes = 0 then begin
    t.src_classes <- Array.make slots (-1);
    t.tgt_classes <- Array.make slots (-1);
    t.max_stale_uses <- Array.make slots 0;
    t.bytes_useds <- Array.make slots 0
  end;
  let p = probe t ~src ~tgt in
  if p >= 0 then p
  else begin
    let i = -p - 1 in
    t.src_classes.(i) <- src;
    t.tgt_classes.(i) <- tgt;
    t.max_stale_uses.(i) <- 0;
    t.bytes_useds.(i) <- 0;
    note_occupied t i;
    i
  end

let record_stale_use t ~src ~tgt ~stale =
  let i = find_or_add t ~src ~tgt in
  if stale > t.max_stale_uses.(i) then t.max_stale_uses.(i) <- stale

(* A misprediction decays the controller's confidence in pruning this
   edge type: raising maxstaleuse to the pruned staleness plus the
   candidate slack means the same references no longer qualify
   (selection requires stale >= maxstaleuse + slack). *)
let protect t ~src ~tgt ~min_stale_use =
  let i = find_or_add t ~src ~tgt in
  if min_stale_use > t.max_stale_uses.(i) then
    t.max_stale_uses.(i) <- min_stale_use

(* Checkpoint import: install an entry wholesale. Unlike [protect] this
   also lowers [maxstaleuse] — the checkpoint is authoritative for the
   incarnation being restored. *)
let load_entry t ~src ~tgt ~max_stale_use ~bytes_used =
  let i = find_or_add t ~src ~tgt in
  t.max_stale_uses.(i) <- max_stale_use;
  t.bytes_useds.(i) <- bytes_used

let max_stale_use t ~src ~tgt =
  if t.entries = 0 then 0
  else
    let i = probe t ~src ~tgt in
    if i >= 0 then t.max_stale_uses.(i) else 0

let add_bytes t ~src ~tgt n =
  let i = find_or_add t ~src ~tgt in
  t.bytes_useds.(i) <- t.bytes_useds.(i) + n

let bytes_used t ~src ~tgt =
  if t.entries = 0 then 0
  else
    let i = probe t ~src ~tgt in
    if i >= 0 then t.bytes_useds.(i) else 0

(* Ties break on the lexicographically least (src, tgt) class pair —
   NOT on slot index, which depends on insertion order under hash
   collisions. Entry insertion order is the one thing the parallel
   engine does not reproduce exactly (byte totals and the entry SET are
   identical; table placement is not), so the winner must be a function
   of the entries alone. *)
let select_max_bytes t =
  let best = ref (-1) in
  for k = 0 to t.entries - 1 do
    let i = t.occupied.(k) in
    let bytes = t.bytes_useds.(i) in
    if bytes > 0 then begin
      let b = !best in
      if
        b < 0
        || bytes > t.bytes_useds.(b)
        || bytes = t.bytes_useds.(b)
           && (t.src_classes.(i) < t.src_classes.(b)
              || t.src_classes.(i) = t.src_classes.(b)
                 && t.tgt_classes.(i) < t.tgt_classes.(b))
      then best := i
    end
  done;
  let b = !best in
  if b < 0 then None
  else Some (t.src_classes.(b), t.tgt_classes.(b), t.bytes_useds.(b))

let reset_bytes t =
  for k = 0 to t.entries - 1 do
    t.bytes_useds.(t.occupied.(k)) <- 0
  done

let decay_max_stale_use t =
  for k = 0 to t.entries - 1 do
    let i = t.occupied.(k) in
    t.max_stale_uses.(i) <- t.max_stale_uses.(i) / 2
  done

let entry_count t = t.entries

let iter t f =
  for k = 0 to t.entries - 1 do
    let i = t.occupied.(k) in
    f ~src:t.src_classes.(i) ~tgt:t.tgt_classes.(i)
      ~max_stale_use:t.max_stale_uses.(i) ~bytes_used:t.bytes_useds.(i)
  done

let load_factor t = float_of_int t.entries /. float_of_int slots
