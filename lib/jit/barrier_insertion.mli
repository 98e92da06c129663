(** The read-barrier insertion pass (paper Sections 4.1 and 5).

    After every reference load the compiler inserts the conditional
    low-bit test and a (guarded) call to the out-of-line cold path — "to
    mitigate this overhead, the compilers insert only the conditional
    test and a method call for the barrier's body". This bloats the IR,
    which is what makes downstream optimization passes slower and final
    code larger. *)

val insert : Ir.instr list -> Ir.instr list * int
(** [insert instrs] is the instrumented IR and the number of barriers
    inserted (one per reference load: [Iload_ref], [Iload_static],
    [Iarray_load]). *)
