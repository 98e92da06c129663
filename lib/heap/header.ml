type t = int

let mark_bit = 0b1
let minor_mark_bit = 0b10
let stale_shift = 2
let stale_mask = 0b111 lsl stale_shift
let finalizable_bit = 0b100000
let finalizer_enqueued_bit = 0b1000000
let statics_container_bit = 0b10000000
let nursery_bit = 0b100000000
let on_disk_bit = 0b1000000000

let size_shift = 10

let empty = 0

let[@inline] of_size size = size lsl size_shift

let[@inline] size h = h lsr size_shift

let free = -1

let[@inline] is_free h = h < 0

let max_stale = 7

let[@inline] mark h = h land mark_bit
let[@inline] with_mark h m = (h land lnot mark_bit) lor m

let minor_marked h = h land minor_mark_bit <> 0
let set_minor_marked h = h lor minor_mark_bit
let clear_minor_marked h = h land lnot minor_mark_bit

let stale_counter h = (h land stale_mask) lsr stale_shift

let with_stale_counter h k =
  if k < 0 || k > max_stale then invalid_arg "Header.with_stale_counter";
  (h land lnot stale_mask) lor (k lsl stale_shift)

let finalizable h = h land finalizable_bit <> 0
let set_finalizable h = h lor finalizable_bit

let finalizer_enqueued h = h land finalizer_enqueued_bit <> 0
let set_finalizer_enqueued h = h lor finalizer_enqueued_bit

let statics_container h = h land statics_container_bit <> 0
let set_statics_container h = h lor statics_container_bit

let in_nursery h = h land nursery_bit <> 0
let set_in_nursery h = h lor nursery_bit
let clear_in_nursery h = h land lnot nursery_bit

let on_disk h = h land on_disk_bit <> 0
let set_on_disk h = h lor on_disk_bit
let clear_on_disk h = h land lnot on_disk_bit
