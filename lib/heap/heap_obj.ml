type t = { id : int } [@@unboxed]

let index_bits = 32

let max_index = (1 lsl index_bits) - 1

let max_generation = (1 lsl 30) - 1

let[@inline] index t = t.id land max_index

let[@inline] generation t = t.id lsr index_bits

let[@inline] pack ~index ~generation = { id = (generation lsl index_bits) lor index }

let[@inline] next_generation g = (g + 1) land max_generation

let word_size = 4

let header_bytes = 8

let size_of ~n_fields ~scalar_bytes =
  if n_fields < 0 || scalar_bytes < 0 then invalid_arg "Heap_obj.size_of";
  header_bytes + (word_size * n_fields) + scalar_bytes
