type 'a t = {
  capacity : int;
  buf : 'a option array;
  mutable start : int;  (* index of the oldest element *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { capacity; buf = Array.make capacity None; start = 0; len = 0; dropped = 0 }

let length t = t.len

let dropped t = t.dropped

let is_empty t = t.len = 0

let push t x =
  if t.len < t.capacity then begin
    t.buf.((t.start + t.len) mod t.capacity) <- Some x;
    t.len <- t.len + 1
  end
  else begin
    (* full: overwrite the oldest slot and advance the start *)
    t.buf.(t.start) <- Some x;
    t.start <- (t.start + 1) mod t.capacity;
    t.dropped <- t.dropped + 1
  end

let iter t f =
  for i = 0 to t.len - 1 do
    match t.buf.((t.start + i) mod t.capacity) with
    | Some x -> f x
    | None -> assert false
  done

let fold t ~init f =
  let acc = ref init in
  iter t (fun x -> acc := f !acc x);
  !acc

let to_list t =
  List.rev (fold t ~init:[] (fun acc x -> x :: acc))

let clear t =
  Array.fill t.buf 0 t.capacity None;
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0
