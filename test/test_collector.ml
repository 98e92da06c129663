(* Collector phases: reachability, deferral, poisoning, finalizers,
   sweep — including the central property that a plain collection
   reclaims exactly the unreachable objects of a random graph. The
   phases run through the single-domain engine with no slice budget,
   the collector every VM runs by default. *)

open Lp_heap

let seq = Collector.create ()

let mark store roots ~stats ~config =
  Collector.mark seq store roots ~stats ~config

let stale_closure store ~stats edge =
  Collector.stale_closure seq store ~stats ~set_untouched_bits:false
    ~stale_tick_gc:None edge

let sweep store ~stats = Collector.sweep seq store ~stats

let build_store () = Store.create ~limit_bytes:1_000_000

let alloc store ~n_fields =
  Store.alloc store ~class_id:0 ~n_fields ~scalar_bytes:0 ~finalizable:false

let link store (src : Heap_obj.t) i (tgt : Heap_obj.t) =
  Store.set_field store (Heap_obj.index src) i (Word.of_id (Heap_obj.index tgt))

let collect_base store roots =
  let stats = Gc_stats.create () in
  ignore (mark store roots ~stats ~config:Collector.base_config);
  sweep store ~stats;
  stats

let test_unreachable_reclaimed () =
  let store = build_store () in
  let roots = Roots.create () in
  let a = alloc store ~n_fields:1 in
  let b = alloc store ~n_fields:1 in
  let c = alloc store ~n_fields:0 in
  Roots.add_static_root roots (Heap_obj.index a);
  link store a 0 b;
  (* c unreachable *)
  ignore (collect_base store roots);
  Alcotest.(check bool) "a live" true (Store.mem store (Heap_obj.index a));
  Alcotest.(check bool) "b live" true (Store.mem store (Heap_obj.index b));
  Alcotest.(check bool) "c reclaimed" false (Store.mem store (Heap_obj.index c))

let test_cycle_reclaimed () =
  let store = build_store () in
  let roots = Roots.create () in
  let a = alloc store ~n_fields:1 in
  let b = alloc store ~n_fields:1 in
  link store a 0 b;
  link store b 0 a;
  ignore (collect_base store roots);
  Alcotest.(check int) "unrooted cycle fully reclaimed" 0 (Store.object_count store)

let test_live_bytes_recorded () =
  let store = build_store () in
  let roots = Roots.create () in
  let a = alloc store ~n_fields:0 in
  ignore (alloc store ~n_fields:0);
  Roots.add_static_root roots (Heap_obj.index a);
  ignore (collect_base store roots);
  Alcotest.(check int) "live bytes" (Store.size_bytes store (Heap_obj.index a)) (Store.live_bytes store);
  Alcotest.(check int) "used equals live after sweep" (Store.size_bytes store (Heap_obj.index a))
    (Store.used_bytes store)

let test_untouched_bits_set () =
  let store = build_store () in
  let roots = Roots.create () in
  let a = alloc store ~n_fields:1 in
  let b = alloc store ~n_fields:0 in
  Roots.add_static_root roots (Heap_obj.index a);
  link store a 0 b;
  let stats = Gc_stats.create () in
  ignore
    (mark store roots ~stats
       ~config:{ Collector.set_untouched_bits = true; stale_tick_gc = None; edge_filter = None; on_poison = None; events = None });
  sweep store ~stats;
  Alcotest.(check bool) "bit set on scanned reference" true
    (Word.untouched (Store.field store (Heap_obj.index a) 0));
  Alcotest.(check int) "one bit recorded" 1 stats.Gc_stats.untouched_bits_set

let test_defer_returns_candidates_and_keeps_subtree_unmarked () =
  let store = build_store () in
  let roots = Roots.create () in
  let a = alloc store ~n_fields:1 in
  let b = alloc store ~n_fields:1 in
  let c = alloc store ~n_fields:0 in
  Roots.add_static_root roots (Heap_obj.index a);
  link store a 0 b;
  link store b 0 c;
  let stats = Gc_stats.create () in
  let filter (e : Collector.edge) =
    if e.Collector.tgt = Heap_obj.index b then Collector.Defer
    else Collector.Trace
  in
  let deferred =
    mark store roots ~stats
      ~config:{ Collector.set_untouched_bits = false; stale_tick_gc = None; edge_filter = Some filter; on_poison = None; events = None }
  in
  Alcotest.(check int) "one candidate" 1 (List.length deferred);
  Alcotest.(check bool) "b not marked by in-use closure" false
    (Store.marked store (Heap_obj.index b));
  (* the stale closure claims b and c (two objects, 12 + 8... = their sizes) *)
  let bytes =
    stale_closure store ~stats (List.hd deferred)
  in
  Alcotest.(check int) "claimed bytes"
    (Store.size_bytes store (Heap_obj.index b) + Store.size_bytes store (Heap_obj.index c))
    bytes;
  Alcotest.(check bool) "b marked by the stale closure" true
    (Store.marked store (Heap_obj.index b));
  sweep store ~stats;
  Alcotest.(check int) "nothing reclaimed in SELECT" 3 (Store.object_count store)

let test_stale_closure_zero_for_marked_target () =
  let store = build_store () in
  let roots = Roots.create () in
  let a = alloc store ~n_fields:2 in
  let b = alloc store ~n_fields:0 in
  Roots.add_static_root roots (Heap_obj.index a);
  link store a 0 b;
  link store a 1 b;
  let stats = Gc_stats.create () in
  (* trace edge 1, defer edge 0: the target is in-use via the other path *)
  let filter (e : Collector.edge) =
    if e.Collector.field = 0 then Collector.Defer else Collector.Trace
  in
  let deferred =
    mark store roots ~stats
      ~config:{ Collector.set_untouched_bits = false; stale_tick_gc = None; edge_filter = Some filter; on_poison = None; events = None }
  in
  let bytes =
    stale_closure store ~stats (List.hd deferred)
  in
  Alcotest.(check int) "no bytes claimed for in-use target" 0 bytes;
  sweep store ~stats

let test_poison_reclaims_subtree () =
  let store = build_store () in
  let roots = Roots.create () in
  let a = alloc store ~n_fields:1 in
  let b = alloc store ~n_fields:1 in
  let c = alloc store ~n_fields:0 in
  Roots.add_static_root roots (Heap_obj.index a);
  link store a 0 b;
  link store b 0 c;
  let stats = Gc_stats.create () in
  let filter (e : Collector.edge) =
    if e.Collector.tgt = Heap_obj.index b then Collector.Poison
    else Collector.Trace
  in
  ignore
    (mark store roots ~stats
       ~config:{ Collector.set_untouched_bits = false; stale_tick_gc = None; edge_filter = Some filter; on_poison = None; events = None });
  sweep store ~stats;
  Alcotest.(check bool) "reference poisoned" true (Word.poisoned (Store.field store (Heap_obj.index a) 0));
  Alcotest.(check bool) "b reclaimed" false (Store.mem store (Heap_obj.index b));
  Alcotest.(check bool) "c reclaimed" false (Store.mem store (Heap_obj.index c));
  Alcotest.(check int) "poison count" 1 stats.Gc_stats.references_poisoned;
  (* a later collection must not trace (or crash on) the poisoned ref *)
  ignore (collect_base store roots);
  Alcotest.(check bool) "a still live" true (Store.mem store (Heap_obj.index a))

let test_finalizer_resurrection () =
  let store = build_store () in
  let roots = Roots.create () in
  let finalized = ref [] in
  let a =
    Store.alloc store ~class_id:0 ~n_fields:1 ~scalar_bytes:0 ~finalizable:true
  in
  let b = alloc store ~n_fields:0 in
  link store a 0 b;
  (* both unreachable; a has a finalizer which may access b *)
  let stats = Gc_stats.create () in
  ignore (mark store roots ~stats ~config:Collector.base_config);
  Collector.resurrect_finalizables seq store ~stats ~on_finalize:(fun o ->
      finalized := Heap_obj.index o :: !finalized);
  sweep store ~stats;
  Alcotest.(check (list int)) "finalizer ran" [ Heap_obj.index a ] !finalized;
  Alcotest.(check bool) "a resurrected for this collection" true
    (Store.mem store (Heap_obj.index a));
  Alcotest.(check bool) "referent kept for the finalizer" true
    (Store.mem store (Heap_obj.index b));
  (* next collection reclaims both, without running the finalizer again *)
  ignore (mark store roots ~stats ~config:Collector.base_config);
  Collector.resurrect_finalizables seq store ~stats ~on_finalize:(fun o ->
      finalized := Heap_obj.index o :: !finalized);
  sweep store ~stats;
  Alcotest.(check int) "finalizer ran once" 1 (List.length !finalized);
  Alcotest.(check int) "both reclaimed" 0 (Store.object_count store)

(* Property: a plain collection retains exactly the reachable set of a
   random graph. *)
let prop_reachability =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 40 in
      let* edges = list_size (int_range 0 80) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      let* roots = list_size (int_range 0 5) (int_range 0 (n - 1)) in
      return (n, edges, roots))
  in
  QCheck.Test.make ~name:"collector: live set equals reachable set" ~count:200
    (QCheck.make gen)
    (fun (n, edges, root_ids) ->
      let store = build_store () in
      let roots = Roots.create () in
      let objs = Array.init n (fun _ -> alloc store ~n_fields:4) in
      let fields = Array.make n 0 in
      List.iter
        (fun (src, tgt) ->
          if fields.(src) < 4 then begin
            link store objs.(src) fields.(src) objs.(tgt);
            fields.(src) <- fields.(src) + 1
          end)
        edges;
      List.iter (fun i -> Roots.add_static_root roots (Heap_obj.index objs.(i))) root_ids;
      (* reference reachability via OCaml-side BFS *)
      let reachable = Array.make n false in
      let rec visit i =
        if not reachable.(i) then begin
          reachable.(i) <- true;
          List.iter
            (fun (src, tgt) -> if src = i && reachable.(i) then visit_edge src tgt)
            edges
        end
      and visit_edge src tgt =
        (* only edges that were actually installed *)
        let installed = ref false in
        for i = 0 to Store.n_fields store (Heap_obj.index objs.(src)) - 1 do
          let w = Store.field store (Heap_obj.index objs.(src)) i in
          if (not (Word.is_null w)) && Word.target w = (Heap_obj.index objs.(tgt)) then
            installed := true
        done;
        if !installed then visit tgt
      in
      List.iter visit root_ids;
      ignore (collect_base store roots);
      let ok = ref true in
      Array.iteri
        (fun i obj ->
          let live = Store.mem store (Heap_obj.index obj) && Store.get store (Heap_obj.index obj) == obj in
          if live <> reachable.(i) then ok := false)
        objs;
      !ok)

let suite =
  ( "collector",
    [
      Alcotest.test_case "unreachable reclaimed" `Quick test_unreachable_reclaimed;
      Alcotest.test_case "cycle reclaimed" `Quick test_cycle_reclaimed;
      Alcotest.test_case "live bytes recorded" `Quick test_live_bytes_recorded;
      Alcotest.test_case "untouched bits" `Quick test_untouched_bits_set;
      Alcotest.test_case "defer and stale closure" `Quick
        test_defer_returns_candidates_and_keeps_subtree_unmarked;
      Alcotest.test_case "stale closure of in-use target" `Quick
        test_stale_closure_zero_for_marked_target;
      Alcotest.test_case "poison reclaims subtree" `Quick test_poison_reclaims_subtree;
      Alcotest.test_case "finalizer resurrection" `Quick test_finalizer_resurrection;
      QCheck_alcotest.to_alcotest prop_reachability;
    ] )
