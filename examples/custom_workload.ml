(* Writing your own workload against the public API: a small cache
   server with a subtle leak (evicted entries remain on an LRU audit
   trail), run under the harness like the paper's ten leaks.

   Run with:  dune exec examples/custom_workload.exe *)

open Lp_heap
open Lp_runtime

(* statics: field 0 = cache table (Object[] of entries, reused slots),
   field 1 = audit-trail list head (the leak: entries evicted from the
   cache are appended here "for debugging" and never read again). *)
let cache_slots = 64

let prepare vm =
  let statics = Vm.statics vm ~class_name:"CacheServer" ~n_fields:2 in
  Vm.with_frame vm ~n_slots:1 (fun frame ->
      let table = Vm.alloc vm ~class_name:"Object[]" ~n_fields:cache_slots () in
      Roots.set_slot frame 0 (Heap_obj.index table);
      Mutator.write_obj vm statics 0 (Vm.deref vm (Roots.get_slot frame 0)));
  let rand = Lp_workloads.Rand.create 2024 in
  fun () ->
    for _request = 1 to 8 do
      let slot = Lp_workloads.Rand.below rand cache_slots in
      Vm.with_frame vm ~n_slots:2 (fun frame ->
          let value =
            Vm.alloc vm ~class_name:"CachedValue" ~scalar_bytes:180 ~n_fields:0 ()
          in
          Roots.set_slot frame 0 (Heap_obj.index value);
          let entry = Vm.alloc vm ~class_name:"CacheEntry" ~n_fields:2 () in
          Roots.set_slot frame 1 (Heap_obj.index entry);
          Mutator.write_obj vm entry 1 (Vm.deref vm (Roots.get_slot frame 0));
          let table = Mutator.read_exn vm statics 0 in
          (* evict: the old entry goes onto the audit trail (the leak) *)
          (match Mutator.read vm table slot with
          | Some old ->
            (match Mutator.read vm statics 1 with
            | Some head -> Mutator.write_obj vm old 0 head
            | None -> ());
            Mutator.write_obj vm statics 1 old
          | None -> ());
          Mutator.write_obj vm table slot (Vm.deref vm (Roots.get_slot frame 1)))
    done;
    (* serve hits: read random cached entries (live traffic) *)
    for _hit = 1 to 16 do
      let table = Mutator.read_exn vm statics 0 in
      match Mutator.read vm table (Lp_workloads.Rand.below rand cache_slots) with
      | Some entry -> ignore (Mutator.read vm entry 1)
      | None -> ()
    done;
    Vm.work vm 2_000

let workload =
  {
    Lp_workloads.Workload.name = "CacheServer";
    description = "cache with an evicted-entry audit trail that leaks";
    category = Lp_workloads.Workload.All_dead;
    default_heap_bytes = 150_000;
    fixed_iterations = None;
    prepare;
    bytecode = None;
    field_map = [];
  }

let () =
  print_endline "A custom workload under the experiment harness:\n";
  let base =
    Lp_harness.Driver.run ~policy:Lp_core.Policy.None_ ~max_iterations:20_000
      workload
  in
  let pruned =
    Lp_harness.Driver.run ~policy:Lp_core.Policy.Default ~max_iterations:20_000
      workload
  in
  Printf.printf "  base:         %5d iterations (%s)\n" base.Lp_harness.Driver.iterations
    (Lp_harness.Driver.outcome_to_string base.Lp_harness.Driver.outcome);
  Printf.printf "  leak pruning: %5d iterations (%s)\n" pruned.Lp_harness.Driver.iterations
    (Lp_harness.Driver.outcome_to_string pruned.Lp_harness.Driver.outcome);
  Printf.printf "  pruned reference types: %s\n"
    (String.concat ", "
       (List.map (fun (s, t) -> s ^ " -> " ^ t) pruned.Lp_harness.Driver.pruned_edge_types))
