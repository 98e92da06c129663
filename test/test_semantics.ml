(* The central semantics-preservation property of the paper (Section 2):

   "Any prediction algorithm preserves correctness since leak pruning
   ensures accesses to reclaimed memory are intercepted."

   Random mutator programs run against a pure OCaml shadow model. Every
   object gets a unique class name, so a read that returns the wrong
   object is detectable. The property: under any prediction policy and
   any heap pressure, a read either agrees with the shadow model or
   raises the InternalError/OutOfMemoryError protocol — it never
   produces a wrong value. *)

open Lp_heap
open Lp_runtime

(* Shadow model: slots hold shadow nodes; each node has a unique class
   name and two shadow fields. *)
type shadow = { cls : string; mutable f0 : shadow option; mutable f1 : shadow option }

type op =
  | Alloc of int  (* slot *)
  | Link of int * int * int  (* src slot, field, tgt slot *)
  | Unlink of int * int
  | Read_path of int * int list  (* slot, field path *)

let op_gen n_slots =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun s -> Alloc s) (int_range 0 (n_slots - 1)));
        ( 3,
          map3
            (fun a f b -> Link (a, f, b))
            (int_range 0 (n_slots - 1))
            (int_range 0 1)
            (int_range 0 (n_slots - 1)) );
        (1, map2 (fun a f -> Unlink (a, f)) (int_range 0 (n_slots - 1)) (int_range 0 1));
        ( 4,
          map2
            (fun s path -> Read_path (s, path))
            (int_range 0 (n_slots - 1))
            (list_size (int_range 1 4) (int_range 0 1)) );
      ])

let n_slots = 8

(* Runs the program under [policy]; returns false only on a detected
   semantics violation. [strict] additionally requires that no error is
   raised at all (used for the no-pressure baseline). *)
let run_program ?(strict = false) ~policy ~heap ops =
  let config = Lp_core.Config.make ~policy () in
  let vm = Vm.create ~config ~heap_bytes:heap () in
  let statics = Vm.statics vm ~class_name:"Slots" ~n_fields:n_slots in
  let shadows : shadow option array = Array.make n_slots None in
  let counter = ref 0 in
  let violated = ref false in
  let finished = ref false in
  (try
     List.iter
       (fun op ->
         match op with
         | Alloc slot ->
           incr counter;
           let cls = Printf.sprintf "Node%06d" !counter in
           let obj = Vm.alloc vm ~class_name:cls ~scalar_bytes:48 ~n_fields:2 () in
           Mutator.write_obj vm statics slot obj;
           shadows.(slot) <- Some { cls; f0 = None; f1 = None }
         | Link (a, f, b) -> (
           match (Mutator.read vm statics a, Mutator.read vm statics b) with
           | Some oa, ob ->
             Mutator.write vm oa f ob;
             (match (shadows.(a), shadows.(b)) with
             | Some sa, sb -> if f = 0 then sa.f0 <- sb else sa.f1 <- sb
             | None, _ -> violated := true)
           | None, _ -> if shadows.(a) <> None then violated := true)
         | Unlink (a, f) -> (
           match Mutator.read vm statics a with
           | Some oa ->
             Mutator.clear vm oa f;
             (match shadows.(a) with
             | Some sa -> if f = 0 then sa.f0 <- None else sa.f1 <- None
             | None -> violated := true)
           | None -> if shadows.(a) <> None then violated := true)
         | Read_path (slot, path) ->
           let rec follow obj shadow path =
             match path with
             | [] -> ()
             | f :: rest -> (
               let next_obj = Mutator.read vm obj f in
               let next_shadow = if f = 0 then shadow.f0 else shadow.f1 in
               match (next_obj, next_shadow) with
               | None, None -> ()
               | Some o, Some s ->
                 let cls =
                   Class_registry.name (Vm.registry vm) (Store.class_of (Vm.store vm) o.Heap_obj.id)
                 in
                 if cls <> s.cls then violated := true
                 else follow o s rest
               | Some _, None | None, Some _ -> violated := true)
           in
           (match (Mutator.read vm statics slot, shadows.(slot)) with
           | None, None -> ()
           | Some o, Some s ->
             let cls = Class_registry.name (Vm.registry vm) (Store.class_of (Vm.store vm) o.Heap_obj.id) in
             if cls <> s.cls then violated := true else follow o s path
           | Some _, None | None, Some _ -> violated := true))
       ops;
     finished := true
   with
  | Lp_core.Errors.Out_of_memory _ -> ()
  | Lp_core.Errors.Internal_error { cause = Lp_core.Errors.Out_of_memory _; _ } ->
    (* semantics-preserving interception: the program had already run
       out of memory *)
    ()
  | Lp_core.Errors.Internal_error _ ->
    (* an InternalError whose cause is not the averted OOM would break
       the paper's protocol *)
    violated := true);
  if strict && not !finished then false else not !violated

let prop_no_pressure_exact =
  QCheck.Test.make
    ~name:"semantics: without memory pressure every read matches the shadow model"
    ~count:120
    (QCheck.make QCheck.Gen.(list_size (int_range 1 120) (op_gen n_slots)))
    (fun ops ->
      run_program ~strict:true ~policy:Lp_core.Policy.Default ~heap:10_000_000 ops)

let prop_pruning_never_wrong_value policy name =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "semantics: %s under pressure yields correct values or the error protocol"
         name)
    ~count:120
    (QCheck.make QCheck.Gen.(list_size (int_range 30 400) (op_gen n_slots)))
    (fun ops ->
      (* a heap small enough that long programs exhaust it *)
      run_program ~policy ~heap:3_000 ops)

let suite =
  ( "semantics",
    [
      QCheck_alcotest.to_alcotest prop_no_pressure_exact;
      QCheck_alcotest.to_alcotest
        (prop_pruning_never_wrong_value Lp_core.Policy.Default "default");
      QCheck_alcotest.to_alcotest
        (prop_pruning_never_wrong_value Lp_core.Policy.Most_stale "most-stale");
      QCheck_alcotest.to_alcotest
        (prop_pruning_never_wrong_value Lp_core.Policy.Individual_refs "indiv-refs");
      QCheck_alcotest.to_alcotest
        (prop_pruning_never_wrong_value Lp_core.Policy.None_ "base");
    ] )
