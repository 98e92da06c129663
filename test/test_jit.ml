(* The compiler substrate: lowering, passes, barrier insertion. *)

open Lp_jit

let simple_method code =
  { Bytecode.name = "t"; n_locals = 4; code = Array.of_list code }

let test_lowering_straight_line () =
  let m =
    simple_method
      [
        Bytecode.Const 1;
        Bytecode.Store_local 0;
        Bytecode.Load_local 0;
        Bytecode.Load_local 0;
        Bytecode.Add;
        Bytecode.Store_local 1;
        Bytecode.Return;
      ]
  in
  let ir, n_regs = Lowering.lower m in
  Alcotest.(check bool) "registers beyond locals" true (n_regs > 4);
  Alcotest.(check bool) "ends in ret" true
    (match List.rev ir with Ir.Iret :: _ -> true | _ -> false)

let test_lowering_rejects_unbalanced () =
  let m = simple_method [ Bytecode.Add; Bytecode.Return ] in
  Alcotest.check_raises "unbalanced" (Lowering.Unbalanced_stack "t") (fun () ->
      ignore (Lowering.lower m))

let test_lowering_branch_targets () =
  let m =
    simple_method
      [
        Bytecode.Load_local 0;
        Bytecode.Jump_if_zero 4;
        Bytecode.Const 7;
        Bytecode.Store_local 1;
        Bytecode.Return;
      ]
  in
  let ir, _ = Lowering.lower m in
  Alcotest.(check bool) "label emitted for target" true
    (List.exists (function Ir.Ilabel 4 -> true | _ -> false) ir)

let test_constant_folding () =
  let ir = [ Ir.Iconst (4, 2); Ir.Iconst (5, 3); Ir.Ibin (Ir.Add, 6, 4, 5); Ir.Iret ] in
  let r = Passes.constant_folding ir in
  Alcotest.(check bool) "folded to constant" true
    (List.exists (function Ir.Iconst (6, 5) -> true | _ -> false) r.Passes.instrs)

let test_dce_removes_dead_temporary () =
  let ir = [ Ir.Iconst (9, 1); Ir.Iret ] in
  let r = Passes.dead_code_elimination ~n_locals:4 ir in
  Alcotest.(check int) "dead const removed" 1 (List.length r.Passes.instrs)

let test_dce_keeps_locals_and_side_effects () =
  let ir = [ Ir.Iconst (2, 1); Ir.Istore_ref (0, "f", 2); Ir.Iret ] in
  let r = Passes.dead_code_elimination ~n_locals:4 ir in
  Alcotest.(check int) "all kept" 3 (List.length r.Passes.instrs)

let test_copy_propagation () =
  let ir = [ Ir.Imove (5, 0); Ir.Ibin (Ir.Add, 6, 5, 5); Ir.Imove (1, 6); Ir.Iret ] in
  let r = Passes.copy_propagation ir in
  Alcotest.(check bool) "uses rewritten to the source" true
    (List.exists (function Ir.Ibin (Ir.Add, 6, 0, 0) -> true | _ -> false)
       r.Passes.instrs)

let test_cse () =
  let ir =
    [ Ir.Ibin (Ir.Add, 5, 0, 1); Ir.Ibin (Ir.Add, 6, 0, 1); Ir.Imove (2, 6); Ir.Iret ]
  in
  let r = Passes.common_subexpression ir in
  Alcotest.(check bool) "second occurrence becomes a move" true
    (List.exists (function Ir.Imove (6, 5) -> true | _ -> false) r.Passes.instrs)

let test_barrier_insertion_counts () =
  let m =
    simple_method
      [
        Bytecode.Load_local 0;
        Bytecode.Get_field "next";
        Bytecode.Store_local 1;
        Bytecode.Get_static "Cache.root";
        Bytecode.Store_local 2;
        Bytecode.Load_local 0;
        Bytecode.Load_local 1;
        Bytecode.Array_load;
        Bytecode.Store_local 3;
        Bytecode.Return;
      ]
  in
  let ir, _ = Lowering.lower m in
  let instrumented, count = Barrier_insertion.insert ir in
  Alcotest.(check int) "one barrier per load" 3 count;
  Alcotest.(check int) "two IR instructions per barrier"
    (List.length ir + (2 * count))
    (List.length instrumented)

let test_compile_overheads_positive () =
  let m =
    match
      Method_gen.generate (Method_gen.profile ~benchmark:"t" ~n_methods:1 ~seed:3 ())
    with
    | [ m ] -> m
    | _ -> Alcotest.fail "one method expected"
  in
  let base = Compiler.compile ~barriers:false m in
  let instrumented = Compiler.compile ~barriers:true m in
  Alcotest.(check bool) "more compile work" true
    (instrumented.Compiler.pass_visits > base.Compiler.pass_visits);
  Alcotest.(check bool) "more code bytes" true
    (instrumented.Compiler.code_bytes > base.Compiler.code_bytes);
  Alcotest.(check int) "no barriers in base" 0 base.Compiler.barriers_inserted

let test_suite_shape () =
  (* raytrace (highest reference-load density) must show the largest
     compile-time overhead, as in the paper (34% max). *)
  let results = List.map Compiler.compile_suite Method_gen.paper_suite in
  let find name =
    List.find (fun r -> r.Compiler.benchmark = name) results
  in
  let raytrace = find "raytrace" in
  Alcotest.(check bool) "raytrace is the compile-time maximum" true
    (List.for_all
       (fun r ->
         r.Compiler.compile_time_overhead <= raytrace.Compiler.compile_time_overhead)
       results);
  List.iter
    (fun r ->
      if r.Compiler.compile_time_overhead <= 0.0 then
        Alcotest.failf "%s: nonpositive compile overhead" r.Compiler.benchmark;
      if r.Compiler.code_size_overhead <= 0.0 then
        Alcotest.failf "%s: nonpositive code overhead" r.Compiler.benchmark)
    results

let prop_generated_methods_lower =
  QCheck.Test.make ~name:"jit: every generated method lowers cleanly" ~count:60
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let methods =
        Method_gen.generate (Method_gen.profile ~benchmark:"q" ~n_methods:3 ~seed ())
      in
      List.for_all
        (fun m ->
          let ir, _ = Lowering.lower m in
          ir <> [])
        methods)

let prop_passes_never_remove_side_effects =
  QCheck.Test.make ~name:"jit: optimization preserves side-effecting instruction counts"
    ~count:60
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let methods =
        Method_gen.generate (Method_gen.profile ~benchmark:"q" ~n_methods:2 ~seed ())
      in
      List.for_all
        (fun (m : Bytecode.methd) ->
          let ir, _ = Lowering.lower m in
          let count instrs =
            List.length
              (List.filter
                 (function
                   | Ir.Istore_ref _ | Ir.Iarray_store _ | Ir.Icall _ | Ir.Inew _ ->
                     true
                   | _ -> false)
                 instrs)
          in
          let optimized, _ = Passes.run_pipeline ~n_locals:m.Bytecode.n_locals ir in
          count optimized = count ir)
        methods)

let suite =
  ( "jit",
    [
      Alcotest.test_case "lowering straight line" `Quick test_lowering_straight_line;
      Alcotest.test_case "lowering rejects unbalanced" `Quick test_lowering_rejects_unbalanced;
      Alcotest.test_case "branch targets" `Quick test_lowering_branch_targets;
      Alcotest.test_case "constant folding" `Quick test_constant_folding;
      Alcotest.test_case "dce removes dead" `Quick test_dce_removes_dead_temporary;
      Alcotest.test_case "dce keeps effects" `Quick test_dce_keeps_locals_and_side_effects;
      Alcotest.test_case "copy propagation" `Quick test_copy_propagation;
      Alcotest.test_case "cse" `Quick test_cse;
      Alcotest.test_case "barrier insertion" `Quick test_barrier_insertion_counts;
      Alcotest.test_case "compile overheads" `Quick test_compile_overheads_positive;
      Alcotest.test_case "suite shape" `Quick test_suite_shape;
      QCheck_alcotest.to_alcotest prop_generated_methods_lower;
      QCheck_alcotest.to_alcotest prop_passes_never_remove_side_effects;
    ] )
