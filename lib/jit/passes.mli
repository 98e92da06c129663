(** Downstream optimization passes.

    Each pass rewrites the instruction list and reports how many
    instructions it visited. The visit count is the deterministic
    compile-time proxy: barrier insertion bloats the IR, every later
    pass visits the extra instructions, and the total grows — exactly
    the mechanism Section 5 blames for the +17% compile time. *)

type result = { instrs : Ir.instr list; visits : int }

val constant_folding : Ir.instr list -> result
(** Folds [Ibin] over known constants within straight-line regions
    (the constant environment resets at labels and branches). *)

val copy_propagation : Ir.instr list -> result
(** Replaces uses of registers defined by [Imove] within straight-line
    regions. *)

val common_subexpression : Ir.instr list -> result
(** Local value numbering over [Ibin] within straight-line regions. *)

val dead_code_elimination : n_locals:int -> Ir.instr list -> result
(** Removes side-effect-free instructions whose results are never used
    (one backward liveness sweep). Registers below [n_locals] hold local
    variables, whose stores may be observed by other regions, so they
    are always considered live. *)

val run_pipeline : ?rounds:int -> n_locals:int -> Ir.instr list -> Ir.instr list * int
(** Runs the full pass pipeline [rounds] times (default 3) followed by
    the register-allocation costing, returning the optimized
    instructions and the total visit count. *)
