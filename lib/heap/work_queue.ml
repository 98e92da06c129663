type t = { mutable items : int array; mutable len : int }

let create () = { items = Array.make 256 0; len = 0 }

let[@inline never] grow t =
  let items = Array.make (2 * t.len) 0 in
  Array.blit t.items 0 items 0 t.len;
  t.items <- items

(* [push], [pop] and [is_empty] run once per object in the mark loop;
   the growth and the empty-pop error stay out of line so the inlined
   bodies are a bounds test, a load or store, and a length update. *)
let[@inline] push t id =
  if t.len = Array.length t.items then grow t;
  Array.unsafe_set t.items t.len id;
  t.len <- t.len + 1

let[@inline never] empty_pop () = invalid_arg "Work_queue.pop: empty"

let[@inline] pop t =
  if t.len = 0 then empty_pop ();
  let len = t.len - 1 in
  t.len <- len;
  Array.unsafe_get t.items len

let[@inline] is_empty t = t.len = 0

let iter t f =
  for i = 0 to t.len - 1 do
    f t.items.(i)
  done

let clear t = t.len <- 0
