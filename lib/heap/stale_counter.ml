let should_increment ~gc_number ~current =
  current < Header.max_stale && gc_number land ((1 lsl current) - 1) = 0

let tick_object ~gc_number obj =
  let current = Heap_obj.stale obj in
  if should_increment ~gc_number ~current then begin
    Heap_obj.set_stale obj (current + 1);
    true
  end
  else false
