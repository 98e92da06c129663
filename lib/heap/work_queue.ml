type t = { mutable items : int array; mutable len : int }

let create () = { items = Array.make 256 0; len = 0 }

let push t id =
  if t.len = Array.length t.items then begin
    let items = Array.make (2 * t.len) 0 in
    Array.blit t.items 0 items 0 t.len;
    t.items <- items
  end;
  t.items.(t.len) <- id;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Work_queue.pop: empty";
  t.len <- t.len - 1;
  t.items.(t.len)

let is_empty t = t.len = 0

let length t = t.len

let iter t f =
  for i = 0 to t.len - 1 do
    f t.items.(i)
  done

let clear t = t.len <- 0
