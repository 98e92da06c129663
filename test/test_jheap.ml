(* Java-shape helpers: strings, lists, vectors, hash tables. *)

open Lp_heap
open Lp_runtime
open Lp_workloads

let make_vm () = Vm.create ~heap_bytes:1_000_000 ()

let test_string () =
  let vm = make_vm () in
  let s = Jheap.alloc_string vm ~chars:37 in
  Alcotest.(check int) "length via backing array" 37 (Jheap.string_length vm s);
  Alcotest.(check string) "string class" Jheap.string_class
    (Class_registry.name (Vm.registry vm) (Store.class_of (Vm.store vm) s.Heap_obj.id))

let test_list_push_iter () =
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"T" ~n_fields:1 in
  for _i = 1 to 5 do
    ignore
      (Jheap.List_field.push vm ~node_class:"T$Node" ~holder:statics ~field:0
         ~payload:None)
  done;
  Alcotest.(check int) "length" 5
    (Jheap.List_field.length vm ~holder:statics ~field:0)

let test_list_traversal_clears_staleness () =
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"T" ~n_fields:1 in
  let n1 = Jheap.List_field.push vm ~node_class:"T$Node" ~holder:statics ~field:0 ~payload:None in
  let n2 = Jheap.List_field.push vm ~node_class:"T$Node" ~holder:statics ~field:0 ~payload:None in
  Store.set_stale (Vm.store vm) n1.Heap_obj.id 5;
  Store.set_stale (Vm.store vm) n2.Heap_obj.id 5;
  (* arm the untouched bits as a collection would *)
  statics.Heap_obj.fields.(0) <- Word.set_untouched statics.Heap_obj.fields.(0);
  n2.Heap_obj.fields.(0) <- Word.set_untouched n2.Heap_obj.fields.(0);
  Jheap.List_field.iter vm ~holder:statics ~field:0 (fun _ -> ());
  Alcotest.(check int) "head cleared" 0 (Store.stale (Vm.store vm) n2.Heap_obj.id);
  Alcotest.(check int) "tail cleared" 0 (Store.stale (Vm.store vm) n1.Heap_obj.id)

let test_vector_growth_via_arraycopy () =
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"T" ~n_fields:1 in
  let v = Jheap.Vector.create vm ~holder:statics ~field:0 ~initial_capacity:2 in
  let objs =
    List.init 5 (fun i ->
        Vm.alloc vm ~class_name:"Elem" ~scalar_bytes:(8 * (i + 1)) ~n_fields:0 ())
  in
  List.iter (fun o -> Jheap.Vector.add v o) objs;
  Alcotest.(check int) "size" 5 (Jheap.Vector.size v);
  List.iteri
    (fun i o ->
      match Jheap.Vector.get v i with
      | Some got -> Alcotest.(check bool) (Printf.sprintf "elem %d" i) true (got == o)
      | None -> Alcotest.fail "missing element")
    objs

let test_vector_growth_preserves_staleness () =
  (* growth copies via the arraycopy intrinsic: elements are not "used" *)
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"T" ~n_fields:1 in
  let v = Jheap.Vector.create vm ~holder:statics ~field:0 ~initial_capacity:2 in
  let o = Vm.alloc vm ~class_name:"Elem" ~n_fields:0 () in
  Jheap.Vector.add v o;
  Store.set_stale (Vm.store vm) o.Heap_obj.id 6;
  for _i = 1 to 6 do
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let e = Vm.alloc vm ~class_name:"Elem" ~n_fields:0 () in
        Roots.set_slot frame 0 e.Heap_obj.id;
        Jheap.Vector.add v (Vm.deref vm (Roots.get_slot frame 0)))
  done;
  Alcotest.(check int) "stale survived two growths" 6 (Store.stale (Vm.store vm) o.Heap_obj.id)

let test_vector_exchange () =
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"T" ~n_fields:2 in
  let a = Jheap.Vector.create vm ~holder:statics ~field:0 ~initial_capacity:4 in
  let b = Jheap.Vector.create vm ~holder:statics ~field:1 ~initial_capacity:4 in
  let o = Vm.alloc vm ~class_name:"Elem" ~n_fields:0 () in
  Jheap.Vector.add a o;
  (* swap the heap references and the bookkeeping together *)
  let va = Lp_runtime.Mutator.read_exn vm statics 0 in
  let vb = Lp_runtime.Mutator.read_exn vm statics 1 in
  Lp_runtime.Mutator.write_obj vm statics 0 vb;
  Lp_runtime.Mutator.write_obj vm statics 1 va;
  Jheap.Vector.exchange a b;
  Alcotest.(check int) "a now empty" 0 (Jheap.Vector.size a);
  Alcotest.(check int) "b has the element" 1 (Jheap.Vector.size b);
  match Jheap.Vector.get b 0 with
  | Some got -> Alcotest.(check bool) "same element" true (got == o)
  | None -> Alcotest.fail "missing"

let test_hash_table_insert_and_rehash () =
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"T" ~n_fields:1 in
  let t = Jheap.Hash_table.create vm ~holder:statics ~field:0 ~initial_buckets:4 in
  for k = 1 to 40 do
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let payload = Vm.alloc vm ~class_name:"Payload" ~scalar_bytes:16 ~n_fields:0 () in
        Roots.set_slot frame 0 payload.Heap_obj.id;
        Jheap.Hash_table.insert t ~key:k ~payload:(Vm.deref vm (Roots.get_slot frame 0)))
  done;
  Alcotest.(check int) "count" 40 (Jheap.Hash_table.entry_count t);
  Alcotest.(check bool) "rehashed several times" true
    (Jheap.Hash_table.rehash_count t >= 3);
  Alcotest.(check bool) "buckets grew" true (Jheap.Hash_table.buckets t >= 64)

let test_rehash_touches_payloads () =
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"T" ~n_fields:1 in
  let t = Jheap.Hash_table.create vm ~holder:statics ~field:0 ~initial_buckets:4 in
  let payloads = ref [] in
  for k = 1 to 2 do
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let payload = Vm.alloc vm ~class_name:"Payload" ~scalar_bytes:16 ~n_fields:0 () in
        Roots.set_slot frame 0 payload.Heap_obj.id;
        payloads := Vm.deref vm (Roots.get_slot frame 0) :: !payloads;
        Jheap.Hash_table.insert t ~key:k ~payload:(Vm.deref vm (Roots.get_slot frame 0)))
  done;
  List.iter (fun p -> Store.set_stale (Vm.store vm) p.Heap_obj.id 5) !payloads;
  (* arm bits so the rehash's reads clear staleness through cold paths *)
  Store.iter_live (Vm.store vm) (fun o ->
      Array.iteri
        (fun i w ->
          if not (Word.is_null w) then
            o.Heap_obj.fields.(i) <- Word.set_untouched w)
        o.Heap_obj.fields);
  (* force a rehash by crossing the load factor *)
  for k = 3 to 8 do
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let payload = Vm.alloc vm ~class_name:"Payload" ~scalar_bytes:16 ~n_fields:0 () in
        Roots.set_slot frame 0 payload.Heap_obj.id;
        Jheap.Hash_table.insert t ~key:k ~payload:(Vm.deref vm (Roots.get_slot frame 0)))
  done;
  Alcotest.(check bool) "rehash happened" true (Jheap.Hash_table.rehash_count t >= 1);
  List.iter
    (fun p -> Alcotest.(check int) "payload staleness cleared by rehash" 0 (Store.stale (Vm.store vm) p.Heap_obj.id))
    !payloads

let suite =
  ( "jheap",
    [
      Alcotest.test_case "string" `Quick test_string;
      Alcotest.test_case "list push/iter" `Quick test_list_push_iter;
      Alcotest.test_case "traversal clears staleness" `Quick
        test_list_traversal_clears_staleness;
      Alcotest.test_case "vector growth" `Quick test_vector_growth_via_arraycopy;
      Alcotest.test_case "vector growth keeps staleness" `Quick
        test_vector_growth_preserves_staleness;
      Alcotest.test_case "vector exchange" `Quick test_vector_exchange;
      Alcotest.test_case "hash table" `Quick test_hash_table_insert_and_rehash;
      Alcotest.test_case "rehash touches payloads" `Quick test_rehash_touches_payloads;
    ] )
