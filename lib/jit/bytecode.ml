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
