type t = { id : int; fields : Word.t array }

let word_size = 4

let header_bytes = 8

let size_of ~n_fields ~scalar_bytes =
  if n_fields < 0 || scalar_bytes < 0 then invalid_arg "Heap_obj.size_of";
  header_bytes + (word_size * n_fields) + scalar_bytes
