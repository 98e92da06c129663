(** A small stack bytecode, the input language of the {!Compiler}.

    Section 5 of the paper measures what read-barrier insertion does to
    the just-in-time compiler: +17% compile time on average (at most 34%,
    for raytrace) and +10% code size (at most 15%, for javac), because
    barriers bloat the intermediate representation and increase work for
    downstream optimizations. To reproduce those measurements we need a
    compiler whose IR barriers can bloat; this bytecode is its input.

    The instruction set is deliberately Java-flavoured: reference loads
    ([Get_field], [Get_static], [Array_load]) are the instructions the
    barrier-insertion pass instruments. *)

type instr =
  | Const of int  (** push an integer constant *)
  | Load_local of int  (** push local variable *)
  | Store_local of int  (** pop into local variable *)
  | Get_field of string  (** pop object, push reference field — barriered *)
  | Put_field of string  (** pop value and object, store *)
  | Get_static of string  (** push static reference — barriered *)
  | Array_load  (** pop index and array, push element — barriered *)
  | Array_store
  | Add
  | Sub
  | Mul
  | Compare  (** pop two, push -1/0/1 *)
  | Jump of int  (** unconditional branch to instruction index *)
  | Jump_if_zero of int
  | Call of string * int  (** invoke a method with n arguments *)
  | New_object of string
  | Return

type methd = {
  name : string;
  n_locals : int;
  code : instr array;
}

val reference_loads : methd -> int
(** How many instructions the barrier pass will instrument. *)
