(* The controller's full select/prune cycles on hand-built heaps. *)

open Lp_heap

(* A VM-less fixture: store, roots, registry, controller, stats. *)
type fixture = {
  store : Store.t;
  roots : Roots.t;
  registry : Class_registry.t;
  controller : Lp_core.Controller.t;
  stats : Gc_stats.t;
}

let fixture ?(config = Lp_core.Config.default) ~heap () =
  let registry = Class_registry.create () in
  {
    store = Store.create ~limit_bytes:heap;
    roots = Roots.create ();
    registry;
    controller = Lp_core.Controller.create config registry;
    stats = Gc_stats.create ();
  }

let alloc f ~class_name ~n_fields ~scalar =
  Store.alloc f.store
    ~class_id:(Class_registry.register f.registry class_name)
    ~n_fields ~scalar_bytes:scalar ~finalizable:false

let gc f = Lp_core.Controller.collect f.controller f.store f.roots ~stats:f.stats

let link f (src : Heap_obj.t) i (tgt : Heap_obj.t) =
  Store.set_field f.store src.Heap_obj.id i (Word.of_id tgt.Heap_obj.id)

(* Build: root -> holder -> chain of [n] leaked nodes with payloads; the
   holder is re-read by the "program" (staleness 0), the chain is not. *)
let build_leak f ~nodes =
  let holder = alloc f ~class_name:"Holder" ~n_fields:1 ~scalar:0 in
  Roots.add_static_root f.roots holder.Heap_obj.id;
  let prev = ref None in
  for _i = 1 to nodes do
    let node = alloc f ~class_name:"Leaked" ~n_fields:2 ~scalar:20 in
    (match !prev with
    | Some p -> link f node 0 p
    | None -> ());
    prev := Some node
  done;
  (match !prev with Some head -> link f holder 0 head | None -> ());
  holder

let test_full_cycle_reclaims_stale_chain () =
  let f = fixture ~heap:3_100 () in
  let holder = build_leak f ~nodes:80 in
  (* collections: engage tracking, age the chain, select, prune; ticks
     apply while marking, so a few extra collections age the chain *)
  gc f;
  (* keep the holder fresh, as the program re-reads it *)
  let rec age n =
    if n > 0 then begin
      Store.set_stale f.store holder.Heap_obj.id 0;
      gc f;
      age (n - 1)
    end
  in
  age 10;
  Alcotest.(check bool) "pruned something" true
    (f.stats.Gc_stats.references_poisoned > 0);
  Alcotest.(check bool) "heap mostly reclaimed" true
    (Store.live_bytes f.store < 1_000);
  Alcotest.(check bool) "holder survives" true
    (Store.mem f.store holder.Heap_obj.id);
  Alcotest.(check bool) "averted error recorded" true
    (Lp_core.Controller.averted_error f.controller <> None);
  Alcotest.(check int) "one pruned type" 1
    (List.length (Lp_core.Controller.pruned_edge_types f.controller))

let test_selection_prefers_bigger_structure () =
  let f = fixture ~heap:10_000 () in
  let holder = alloc f ~class_name:"Holder" ~n_fields:2 ~scalar:0 in
  Roots.add_static_root f.roots holder.Heap_obj.id;
  (* small structure of class Small, big structure of class Big *)
  let small = alloc f ~class_name:"Small" ~n_fields:0 ~scalar:50 in
  let big = alloc f ~class_name:"Big" ~n_fields:0 ~scalar:5_000 in
  link f holder 0 small;
  link f holder 1 big;
  gc f;
  Store.set_stale f.store small.Heap_obj.id 4;
  Store.set_stale f.store big.Heap_obj.id 4;
  Store.set_stale f.store holder.Heap_obj.id 0;
  gc f;
  (* force SELECT by occupancy: the heap is 10_000 with ~5_100 live, so
     we must drive the state machine by hand via config thresholds
     instead: easier to check the selection directly after a Select
     collection. *)
  ignore (Lp_core.Controller.state f.controller)

(* An Individual-refs SELECT collection attributes to each qualifying
   edge type its direct target's bytes, not the bytes of the target's
   closure, and traces every edge. *)
let test_individual_refs_attributes_direct_bytes () =
  let config =
    Lp_core.Config.make ~policy:Lp_core.Policy.Individual_refs
      ~force_state:Lp_core.State_kind.Select ()
  in
  let f = fixture ~config ~heap:10_000 () in
  let holder = alloc f ~class_name:"Holder" ~n_fields:1 ~scalar:0 in
  Roots.add_static_root f.roots holder.Heap_obj.id;
  let big = alloc f ~class_name:"Big" ~n_fields:1 ~scalar:64 in
  let small = alloc f ~class_name:"Small" ~n_fields:0 ~scalar:8 in
  link f holder 0 big;
  link f big 0 small;
  Store.set_stale f.store big.Heap_obj.id 3;
  Store.set_stale f.store small.Heap_obj.id 3;
  gc f;
  let id = Class_registry.register f.registry in
  Alcotest.(check (option (triple int int int)))
    "Holder -> Big wins with Big's own bytes"
    (Some (id "Holder", id "Big", Store.size_bytes f.store big.Heap_obj.id))
    (Lp_core.Controller.last_selection f.controller);
  Alcotest.(check int) "nothing deferred" 0
    f.stats.Gc_stats.candidates_enqueued;
  Alcotest.(check bool) "every object traced" true
    (Store.mem f.store big.Heap_obj.id && Store.mem f.store small.Heap_obj.id)

let test_unproductive_cycles_end_in_oom () =
  (* Everything is live and fresh: pruning can never help; the failure
     protocol must eventually report out-of-memory rather than loop. *)
  let config = Lp_core.Config.make ~policy:Lp_core.Policy.Default () in
  let f = fixture ~config ~heap:2_000 () in
  let holder = build_leak f ~nodes:40 in
  ignore holder;
  gc f;
  gc f;
  let rec drive n =
    if n = 0 then Alcotest.fail "allocation-failure protocol never gave up"
    else
      match
        Lp_core.Controller.on_allocation_failure f.controller f.store
          ~requested:100_000
      with
      | `Retry ->
        gc f;
        drive (n - 1)
      | `Out_of_memory e ->
        (match e with
        | Lp_core.Errors.Out_of_memory _ -> ()
        | _ -> Alcotest.fail "wrong error")
  in
  drive 100

let test_disabled_policy_gives_up_immediately () =
  let config = Lp_core.Config.make ~policy:Lp_core.Policy.None_ () in
  let f = fixture ~config ~heap:2_000 () in
  ignore (build_leak f ~nodes:40);
  gc f;
  match
    Lp_core.Controller.on_allocation_failure f.controller f.store ~requested:64
  with
  | `Out_of_memory _ -> ()
  | `Retry -> Alcotest.fail "base must throw immediately"

let test_report_hook_fires () =
  let messages = ref [] in
  let config =
    Lp_core.Config.make ~policy:Lp_core.Policy.Default
      ~report:(fun m -> messages := m :: !messages)
      ()
  in
  let f = fixture ~config ~heap:3_100 () in
  let holder = build_leak f ~nodes:80 in
  for _i = 1 to 11 do
    Store.set_stale f.store holder.Heap_obj.id 0;
    gc f
  done;
  Alcotest.(check bool) "pruning reported" true
    (List.exists (fun m -> String.length m > 0) !messages)

let test_maxstaleuse_decay_weakens_protection () =
  (* with decay, a protected edge type becomes prunable again once its
     maxstaleuse has decayed below the target staleness minus the slack *)
  let config =
    Lp_core.Config.make ~policy:Lp_core.Policy.Default ~maxstaleuse_decay_period:2 ()
  in
  let f = fixture ~config ~heap:3_100 () in
  let holder = build_leak f ~nodes:80 in
  (* protect Leaked -> Leaked as if an early phase had used it while very
     stale *)
  let leaked = Class_registry.register f.registry "Leaked" in
  Lp_core.Edge_table.record_stale_use
    (Lp_core.Controller.edge_table f.controller)
    ~src:leaked ~tgt:leaked ~stale:7;
  for _i = 1 to 14 do
    Store.set_stale f.store holder.Heap_obj.id 0;
    gc f
  done;
  Alcotest.(check bool) "decay let pruning through" true
    (f.stats.Gc_stats.references_poisoned > 0)

let test_invalid_config_rejected () =
  let registry = Class_registry.create () in
  let bad = Lp_core.Config.make ~observe_threshold:0.95 () in
  Alcotest.check_raises "threshold ordering"
    (Invalid_argument
       "Controller.create: observe_threshold must be in (0, \
        nearly_full_threshold = 0.9)")
    (fun () -> ignore (Lp_core.Controller.create bad registry))

let suite =
  ( "controller",
    [
      Alcotest.test_case "full cycle reclaims stale chain" `Quick
        test_full_cycle_reclaims_stale_chain;
      Alcotest.test_case "selection sanity" `Quick test_selection_prefers_bigger_structure;
      Alcotest.test_case "individual-refs byte accounting" `Quick
        test_individual_refs_attributes_direct_bytes;
      Alcotest.test_case "unproductive cycles end in OOM" `Quick
        test_unproductive_cycles_end_in_oom;
      Alcotest.test_case "disabled policy throws" `Quick
        test_disabled_policy_gives_up_immediately;
      Alcotest.test_case "report hook" `Quick test_report_hook_fires;
      Alcotest.test_case "maxstaleuse decay" `Quick test_maxstaleuse_decay_weakens_protection;
      Alcotest.test_case "invalid config rejected" `Quick test_invalid_config_rejected;
    ] )
