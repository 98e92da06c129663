type t = { mutable items : int array; mutable len : int }

let create ?(capacity = 256) () = { items = Array.make capacity 0; len = 0 }

let[@inline never] grow t =
  let items = Array.make (max 16 (2 * t.len)) 0 in
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

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Work_queue.get: index out of range";
  Array.unsafe_get t.items i

let iter t f =
  for i = 0 to t.len - 1 do
    f t.items.(i)
  done

let clear t = t.len <- 0

(* Moves [a.(i)] down the max-heap held in [a.(0 .. n - 1)]. *)
let rec sift_down (a : int array) n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift_down a n c
    end
  end

(* Heapsort: in place, O(n log n) at worst, no allocation. *)
let sort t =
  let a = t.items and n = t.len in
  for i = (n / 2) - 1 downto 0 do
    sift_down a n i
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down a last 0
  done
