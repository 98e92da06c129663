type 'a t = { empty : 'a; mutable slots : 'a array; mutable used : int }

let create empty = { empty; slots = [||]; used = 0 }

let[@inline] get t id =
  if id > 0 && id <= Array.length t.slots then Array.unsafe_get t.slots (id - 1)
  else t.empty

let[@inline never] grow t id =
  let n = Array.length t.slots in
  let slots = Array.make (max (max 64 (n + (n / 2))) id) t.empty in
  Array.blit t.slots 0 slots 0 n;
  t.slots <- slots

let set t id v =
  if id < 1 then invalid_arg "Slot_table.set: id must be >= 1";
  if id > Array.length t.slots then grow t id;
  let old = t.slots.(id - 1) in
  if old == t.empty then (if v != t.empty then t.used <- t.used + 1)
  else if v == t.empty then t.used <- t.used - 1;
  t.slots.(id - 1) <- v

let count t = t.used

(* [left] counts the used slots not yet met, so the walk ends at the
   last one; a slot [f] empties was already counted. *)
let iter t f =
  let left = ref t.used and i = ref 0 in
  while !left > 0 && !i < Array.length t.slots do
    let v = Array.unsafe_get t.slots !i in
    if v != t.empty then begin
      decr left;
      f (!i + 1) v
    end;
    incr i
  done

let clear t =
  t.slots <- [||];
  t.used <- 0
