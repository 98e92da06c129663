open Lp_heap
open Lp_runtime

let sessions_per_iteration = 4
let buffer_bytes = 120
let churn_bytes = 800  (* short-lived garbage; drives pre-exhaustion GCs *)

(* statics: field 0 = front chain, field 1 = back chain. Sessions are
   prepended to the front chain and never read again; each iteration the
   two chains swap static fields. Both heads are used every iteration
   (the swap reads them), but everything behind the heads is dead, so
   leak pruning reclaims the Session -> Session chains indefinitely. *)
let prepare vm =
  let statics = Vm.statics vm ~class_name:"SwapLeak" ~n_fields:2 in
  fun () ->
    ignore
      (Vm.alloc vm ~class_name:"SwapLeak$Scratch" ~scalar_bytes:churn_bytes
         ~n_fields:0 ());
    for _i = 1 to sessions_per_iteration do
      Vm.with_frame vm ~n_slots:1 (fun frame ->
          let buffer =
            Vm.alloc vm ~class_name:"SwapLeak$Buffer" ~scalar_bytes:buffer_bytes
              ~n_fields:0 ()
          in
          Roots.set_slot frame 0 (Heap_obj.index buffer);
          ignore
            (Jheap.List_field.push vm ~node_class:"SwapLeak$Session" ~holder:statics
               ~field:0
               ~payload:(Some (Vm.deref vm (Roots.get_slot frame 0)))))
    done;
    (* Swap the chains between the two static fields. *)
    (match (Mutator.read vm statics 0, Mutator.read vm statics 1) with
    | Some a, Some b ->
      Mutator.write_obj vm statics 0 b;
      Mutator.write_obj vm statics 1 a
    | Some a, None ->
      Mutator.clear vm statics 0;
      Mutator.write_obj vm statics 1 a
    | None, Some b ->
      Mutator.write_obj vm statics 0 b;
      Mutator.clear vm statics 1
    | None, None -> ());
    Vm.work vm 300

(* Bytecode model for the static liveness oracle. The swap reads both
   static heads every iteration — exactly the dynamic pattern that keeps
   the heads' staleness low — but no instruction ever loads a Session
   field, so SwapLeak$Session.{0,1} are [Dead_beyond 0]: the chains
   behind the heads are statically dead, and the oracle boosts them. *)
let bytecode =
  let open Lp_jit.Bytecode in
  [
    {
      name = "SwapLeak.iterate";
      n_locals = 4;  (* 0 = counter, 1 = buffer, 2 = session, 3 = swap tmp *)
      code =
        [|
          (* 0 *) New_object "SwapLeak$Scratch";
          (* 1 *) Store_local 3;
          (* 2 *) Const sessions_per_iteration;
          (* 3 *) Store_local 0;
          (* 4 *) Load_local 0;  (* loop head *)
          (* 5 *) Jump_if_zero 24;
          (* 6 *) New_object "SwapLeak$Buffer";
          (* 7 *) Store_local 1;
          (* 8 *) New_object "SwapLeak$Session";
          (* 9 *) Store_local 2;
          (* 10 *) Load_local 2;
          (* 11 *) Get_static "SwapLeak$Statics.0";
          (* 12 *) Put_field "0";  (* session.next <- old front head *)
          (* 13 *) Load_local 2;
          (* 14 *) Load_local 1;
          (* 15 *) Put_field "1";  (* session.payload <- buffer *)
          (* 16 *) Const 0;
          (* 17 *) Load_local 2;
          (* 18 *) Put_field "SwapLeak$Statics.0";  (* front <- session *)
          (* 19 *) Load_local 0;
          (* 20 *) Const 1;
          (* 21 *) Sub;
          (* 22 *) Store_local 0;
          (* 23 *) Jump 4;
          (* swap the two chains between the static fields *)
          (* 24 *) Get_static "SwapLeak$Statics.0";
          (* 25 *) Store_local 3;
          (* 26 *) Const 0;
          (* 27 *) Get_static "SwapLeak$Statics.1";
          (* 28 *) Put_field "SwapLeak$Statics.0";
          (* 29 *) Const 0;
          (* 30 *) Load_local 3;
          (* 31 *) Put_field "SwapLeak$Statics.1";
          (* 32 *) Return;
        |];
    };
  ]

let field_map =
  [
    ("SwapLeak$Statics", "0", [ 0 ]);
    ("SwapLeak$Statics", "1", [ 1 ]);
    ("SwapLeak$Session", "0", [ 0 ]);
    ("SwapLeak$Session", "1", [ 1 ]);
  ]

let workload =
  {
    Workload.name = "SwapLeak";
    description = "swapped session chains accumulating dead sessions (33 LOC)";
    category = Workload.All_dead;
    default_heap_bytes = 100_000;
    fixed_iterations = None;
    prepare;
    bytecode = Some bytecode;
    field_map;
  }
