type instr =
  | Const of int
  | Load_local of int
  | Store_local of int
  | Get_field of string
  | Put_field of string
  | Get_static of string
  | Array_load
  | Array_store
  | Add
  | Sub
  | Mul
  | Compare
  | Jump of int
  | Jump_if_zero of int
  | Call of string * int
  | New_object of string
  | Return

type methd = { name : string; n_locals : int; code : instr array }

let is_reference_load = function
  | Get_field _ | Get_static _ | Array_load -> true
  | Const _ | Load_local _ | Store_local _ | Put_field _ | Array_store | Add
  | Sub | Mul | Compare | Jump _ | Jump_if_zero _ | Call _ | New_object _
  | Return ->
    false

let reference_loads m =
  Array.fold_left (fun n i -> if is_reference_load i then n + 1 else n) 0 m.code
