type t = int

let untouched_bit = 0b01
let poison_bit = 0b10

let null = 0

let is_null w = w = 0

let[@inline never] bad_id id =
  invalid_arg
    (if id < 1 then "Word.of_id: object identifiers start at 1"
     else "Word.of_id: not an identifier (above Heap_obj.max_index)")

(* [1 <= id <= max_index] as one sign test, as [Store]'s bounds checks *)
let of_id id =
  if (id - 1) lor (Heap_obj.max_index - id) < 0 then bad_id id;
  id lsl 2

let target w = w lsr 2

let untouched w = w land untouched_bit <> 0

let set_untouched w = w lor untouched_bit

let clear_untouched w = w land lnot untouched_bit

let poisoned w = w land poison_bit <> 0

let poison w = w lor poison_bit lor untouched_bit

let pp ppf w =
  if is_null w then Format.pp_print_string ppf "null"
  else
    Format.fprintf ppf "#%d%s%s" (target w)
      (if untouched w then "'" else "")
      (if poisoned w then "*" else "")
