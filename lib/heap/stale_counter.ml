let should_increment ~gc_number ~current =
  current < Header.max_stale && gc_number land ((1 lsl current) - 1) = 0

let tick_object store ~gc_number id =
  let current = Store.stale store id in
  if should_increment ~gc_number ~current then begin
    Store.set_stale store id (current + 1);
    true
  end
  else false
