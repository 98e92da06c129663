(* Quickstart: build a deliberately leaky program on the simulated VM
   and watch leak pruning keep it alive.

   Run with:  dune exec examples/quickstart.exe *)

open Lp_heap
open Lp_runtime

(* One iteration of a classic leak: push a node onto a static list and
   never look at it again. *)
let leak_one vm statics =
  Vm.with_frame vm ~n_slots:1 (fun frame ->
      (* Allocate the payload first and root it in a stack frame: any
         allocation may trigger a collection, and unrooted objects are
         collected — exactly as in a real VM. *)
      let payload = Vm.alloc vm ~class_name:"Session" ~scalar_bytes:200 ~n_fields:0 () in
      Roots.set_slot frame 0 (Heap_obj.index payload);
      let node = Vm.alloc vm ~class_name:"ListNode" ~n_fields:2 () in
      Mutator.write_obj vm node 1 (Vm.deref vm (Roots.get_slot frame 0));
      (* link in front of the list head (a static field read through the
         read barrier) *)
      (match Mutator.read vm statics 0 with
      | Some head -> Mutator.write_obj vm node 0 head
      | None -> ());
      Mutator.write_obj vm statics 0 node)

let run ~policy ~label =
  let config =
    Lp_core.Config.make ~policy
      ~report:(fun msg -> Printf.printf "  [vm] %s\n" msg)
      ()
  in
  let vm = Vm.create ~config ~heap_bytes:200_000 () in
  let statics = Vm.statics vm ~class_name:"Quickstart" ~n_fields:1 in
  let iterations = ref 0 in
  Printf.printf "\n=== %s (200 KB heap, 200-byte sessions leaked forever) ===\n" label;
  (try
     while !iterations < 10_000 do
       leak_one vm statics;
       incr iterations
     done;
     Printf.printf "  still running after %d iterations -- stopping the demo here\n"
       !iterations
   with
  | Lp_core.Errors.Out_of_memory _ ->
    Printf.printf "  OutOfMemoryError after %d iterations\n" !iterations
  | Lp_core.Errors.Internal_error _ ->
    Printf.printf "  InternalError (used a pruned reference) after %d iterations\n"
      !iterations);
  Printf.printf "  collections: %d, reachable at end: %d bytes\n" (Vm.gc_count vm)
    (Vm.live_bytes vm)

let () =
  run ~policy:Lp_core.Policy.None_ ~label:"without leak pruning";
  run ~policy:Lp_core.Policy.Default ~label:"with leak pruning";
  print_newline ();
  print_endline
    "Leak pruning predicted the dead list tail, poisoned the references to \
     it,\nand let the collector reclaim the memory -- the program runs in \
     bounded\nspace even though it never stops leaking."
