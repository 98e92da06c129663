let insert instrs =
  let count = ref 0 in
  let rec go = function
    | [] -> []
    | instr :: rest when Ir.is_barrier_target instr ->
      incr count;
      let loaded =
        match Ir.defines instr with
        | Some d -> d
        | None -> assert false  (* every reference load defines a register *)
      in
      instr :: Ir.Ibarrier_test loaded :: Ir.Ibarrier_call loaded :: go rest
    | instr :: rest -> instr :: go rest
  in
  let out = go instrs in
  (out, !count)
