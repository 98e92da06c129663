(** Instruction-level control-flow graphs over {!Bytecode} methods — the
    program representation the static liveness analysis ([lp_liveness])
    runs its dataflow fixpoints on. *)

type t = {
  methd : Bytecode.methd;
  succs : int list array;
      (** successors of each pc, ascending — [Return] has none, [Jump]
          one, [Jump_if_zero] its target plus the fallthrough *)
  preds : int list array;  (** predecessors of each pc, ascending *)
}

val successors : Bytecode.methd -> int -> int list
(** Successor pcs of one instruction, ascending; out-of-range branch
    targets are dropped. *)

val build : Bytecode.methd -> t

val reachable : t -> bool array
(** Per-pc reachability from the entry (dead code never constrains the
    analysis). *)
