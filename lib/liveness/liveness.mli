(** Static liveness oracle over {!Lp_jit.Bytecode} programs.

    [analyze] runs a deterministic interprocedural abstract
    interpretation that grows an {!Access_graph.t} to its least
    fixpoint, then derives one {!verdict} per (class, field) slot:

    - [Dead_beyond 0] — the program never loads the slot: anything
      written there is garbage the moment it lands.
    - [Dead_beyond d] (d >= 1) — the slot is loaded, but every chain of
      loads starting from its contents is at most [d] dereferences
      long. Pruning under it cuts reachable-but-bounded structure.
    - [Maybe_live] — the traversal from the slot is unbounded (a cycle
      in the value-flow graph, an untyped value, or a wild load) — the
      oracle must veto pruning it.
    - [Unanalyzed] — the program never mentions the slot; the oracle is
      silent and dynamic staleness alone decides. *)

type verdict = Dead_beyond of int | Maybe_live | Unanalyzed

val pp_verdict : Format.formatter -> verdict -> unit

type oracle

val analyze : ?worklist_seed:int -> Lp_jit.Bytecode.methd list -> oracle
(** Interprocedural fixpoint over the given methods (processed in name
    order; duplicate names keep the first definition). [worklist_seed]
    permutes the per-method worklist processing order — the least
    fixpoint, and hence the oracle, is identical for every seed. *)

val graph : oracle -> Access_graph.t

val verdict : oracle -> class_name:string -> field:string -> verdict
(** [Unanalyzed] for slots the program never mentions. *)

val verdicts : oracle -> (Access_graph.Key.t * verdict) list
(** All analyzed slots with their verdicts, in canonical key order. *)

val resolve :
  oracle ->
  class_id:(string -> int option) ->
  field_map:(string * string * int list) list ->
  ((int * int) * verdict) list
(** Lower symbolic verdicts onto runtime (class id, heap field index)
    pairs. [field_map] rows are [(class name, bytecode field name,
    heap field indices)]; rows whose class [class_id] cannot resolve
    are dropped. The result is sorted and duplicate-free. *)
