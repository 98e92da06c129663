(* Instruction-level control-flow extraction over [Bytecode] methods.

   The stack machine has exactly three control constructs — [Jump],
   [Jump_if_zero] and [Return] — so the flow graph is computed in one
   pass. Successor lists are kept in ascending pc order and out-of-range
   branch targets are dropped ([Method_gen] never emits them; a
   hand-written method with one simply loses the edge), which keeps
   every downstream fixpoint canonical. *)

type t = {
  methd : Bytecode.methd;
  succs : int list array;  (* successors of each pc, ascending *)
  preds : int list array;  (* predecessors of each pc, ascending *)
}

let successors (m : Bytecode.methd) pc =
  let n = Array.length m.Bytecode.code in
  let in_range l = l >= 0 && l < n in
  let fallthrough = if pc + 1 < n then [ pc + 1 ] else [] in
  match m.Bytecode.code.(pc) with
  | Bytecode.Return -> []
  | Bytecode.Jump l -> if in_range l then [ l ] else []
  | Bytecode.Jump_if_zero l ->
    if in_range l && l <> pc + 1 then List.sort compare (l :: fallthrough)
    else fallthrough
  | Bytecode.Const _ | Bytecode.Load_local _ | Bytecode.Store_local _
  | Bytecode.Get_field _ | Bytecode.Put_field _ | Bytecode.Get_static _
  | Bytecode.Array_load | Bytecode.Array_store | Bytecode.Add | Bytecode.Sub
  | Bytecode.Mul | Bytecode.Compare | Bytecode.Call _ | Bytecode.New_object _
    ->
    fallthrough

let build (m : Bytecode.methd) =
  let n = Array.length m.Bytecode.code in
  let succs = Array.init n (successors m) in
  let preds = Array.make n [] in
  Array.iteri
    (fun pc ss -> List.iter (fun s -> preds.(s) <- pc :: preds.(s)) ss)
    succs;
  Array.iteri (fun i ps -> preds.(i) <- List.sort compare ps) preds;
  { methd = m; succs; preds }

let reachable t =
  let n = Array.length t.methd.Bytecode.code in
  let seen = Array.make (max n 1) false in
  let rec go pc =
    if pc >= 0 && pc < n && not seen.(pc) then begin
      seen.(pc) <- true;
      List.iter go t.succs.(pc)
    end
  in
  if n > 0 then go 0;
  seen
