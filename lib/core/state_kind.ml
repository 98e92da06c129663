type t = Inactive | Observe | Select | Prune | Safe

let to_string = function
  | Inactive -> "INACTIVE"
  | Observe -> "OBSERVE"
  | Select -> "SELECT"
  | Prune -> "PRUNE"
  | Safe -> "SAFE"

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_int = function
  | Inactive -> 0
  | Observe -> 1
  | Select -> 2
  | Prune -> 3
  | Safe -> 4

let of_int = function
  | 0 -> Some Inactive
  | 1 -> Some Observe
  | 2 -> Some Select
  | 3 -> Some Prune
  | 4 -> Some Safe
  | _ -> None

let tracking = function
  | Inactive -> false
  | Observe | Select | Prune | Safe -> true
