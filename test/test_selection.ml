(* Candidate criteria and policy filters (Sections 4.2, 6.1). *)

open Lp_heap
open Lp_core

let store = Store.create ~limit_bytes:1_000_000

let obj ?(statics = false) ~class_id ~stale () =
  let o = Store.alloc store ~class_id ~n_fields:1 ~scalar_bytes:0 ~finalizable:false in
  Store.set_stale store o.Heap_obj.id stale;
  if statics then Store.set_header store o.Heap_obj.id (Header.set_statics_container (Store.header store o.Heap_obj.id));
  o

let edge src (tgt : Heap_obj.t) = { Collector.src; field = 0; tgt = tgt.Heap_obj.id }

let config = Config.default

let qualifies table e = Selection.qualifies (Selection.judge store config table e)

let no_audit _ _ = Alcotest.fail "no prior: nothing to audit"

let test_staleness_threshold () =
  let table = Edge_table.create () in
  let src = obj ~class_id:0 ~stale:0 () in
  Alcotest.(check bool) "stale 1 does not qualify" false
    (qualifies table (edge src (obj ~class_id:1 ~stale:1 ())));
  Alcotest.(check bool) "stale 2 qualifies" true
    (qualifies table (edge src (obj ~class_id:1 ~stale:2 ())))

let test_maxstaleuse_slack () =
  let table = Edge_table.create () in
  Edge_table.record_stale_use table ~src:0 ~tgt:1 ~stale:3;
  let src = obj ~class_id:0 ~stale:0 () in
  Alcotest.(check bool) "stale 4 < maxstaleuse+2" false
    (qualifies table (edge src (obj ~class_id:1 ~stale:4 ())));
  Alcotest.(check bool) "stale 5 >= maxstaleuse+2" true
    (qualifies table (edge src (obj ~class_id:1 ~stale:5 ())))

let test_statics_sources_never_qualify () =
  let table = Edge_table.create () in
  let src = obj ~statics:true ~class_id:0 ~stale:0 () in
  Alcotest.(check bool) "root reference unprunable" false
    (qualifies table (edge src (obj ~class_id:1 ~stale:7 ())))

let test_default_filter_defers () =
  let table = Edge_table.create () in
  let src = obj ~class_id:0 ~stale:0 () in
  let stale_tgt = obj ~class_id:1 ~stale:3 () in
  let fresh_tgt = obj ~class_id:1 ~stale:0 () in
  (match Selection.select_filter_default ~audit:no_audit store config table (edge src stale_tgt) with
  | Collector.Defer -> ()
  | Collector.Trace | Collector.Poison -> Alcotest.fail "expected Defer");
  match Selection.select_filter_default ~audit:no_audit store config table (edge src fresh_tgt) with
  | Collector.Trace -> ()
  | Collector.Defer | Collector.Poison -> Alcotest.fail "expected Trace"

let test_prune_filter_matches_type_and_staleness () =
  let table = Edge_table.create () in
  let src = obj ~class_id:7 ~stale:0 () in
  let tgt = obj ~class_id:8 ~stale:4 () in
  let f = Selection.prune_filter_edge_type ~audit:no_audit store config table
      ~selected:(Some (7, 8))
  in
  (match f (edge src tgt) with
  | Collector.Poison -> ()
  | Collector.Trace | Collector.Defer -> Alcotest.fail "expected Poison");
  (* same classes, fresh target: not poisoned *)
  (match f (edge src (obj ~class_id:8 ~stale:0 ())) with
  | Collector.Trace -> ()
  | Collector.Poison | Collector.Defer -> Alcotest.fail "fresh target spared");
  (* different class: not poisoned *)
  match f (edge src (obj ~class_id:9 ~stale:7 ())) with
  | Collector.Trace -> ()
  | Collector.Poison | Collector.Defer -> Alcotest.fail "other type spared"

let test_most_stale_filter () =
  let src = obj ~class_id:0 ~stale:0 () in
  let f = Selection.prune_filter_most_stale store ~level:5 in
  (match f (edge src (obj ~class_id:1 ~stale:5 ())) with
  | Collector.Poison -> ()
  | Collector.Trace | Collector.Defer -> Alcotest.fail "at level: poison");
  match f (edge src (obj ~class_id:1 ~stale:4 ())) with
  | Collector.Trace -> ()
  | Collector.Poison | Collector.Defer -> Alcotest.fail "below level: trace"

let test_max_live_staleness_ignores_statics () =
  let fresh_store = Store.create ~limit_bytes:10_000 in
  let o1 = Store.alloc fresh_store ~class_id:0 ~n_fields:0 ~scalar_bytes:0 ~finalizable:false in
  Store.set_stale fresh_store o1.Heap_obj.id 3;
  let s = Store.alloc fresh_store ~class_id:1 ~n_fields:0 ~scalar_bytes:0 ~finalizable:false in
  Store.set_header fresh_store s.Heap_obj.id
    (Header.set_statics_container (Store.header fresh_store s.Heap_obj.id));
  Store.set_stale fresh_store s.Heap_obj.id 7;
  Alcotest.(check int) "statics container excluded" 3
    (Selection.max_live_staleness fresh_store ~marked_only:false)

let suite =
  ( "selection",
    [
      Alcotest.test_case "staleness threshold" `Quick test_staleness_threshold;
      Alcotest.test_case "maxstaleuse slack" `Quick test_maxstaleuse_slack;
      Alcotest.test_case "statics sources excluded" `Quick test_statics_sources_never_qualify;
      Alcotest.test_case "default filter defers" `Quick test_default_filter_defers;
      Alcotest.test_case "prune filter" `Quick test_prune_filter_matches_type_and_staleness;
      Alcotest.test_case "most-stale filter" `Quick test_most_stale_filter;
      Alcotest.test_case "most-stale level ignores statics" `Quick
        test_max_live_staleness_ignores_statics;
    ] )
