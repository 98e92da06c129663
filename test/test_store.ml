(* Object store: allocation, accounting, reclamation, identifiers. *)

open Lp_heap

let test_alloc_accounting () =
  let store = Store.create ~limit_bytes:1_000 in
  let obj = Store.alloc store ~class_id:0 ~n_fields:2 ~scalar_bytes:12 ~finalizable:false in
  Alcotest.(check int) "size = header + fields + scalar" (8 + 8 + 12)
    obj.Heap_obj.size_bytes;
  Alcotest.(check int) "used" obj.Heap_obj.size_bytes (Store.used_bytes store);
  Alcotest.(check int) "count" 1 (Store.object_count store)

let test_heap_full () =
  let store = Store.create ~limit_bytes:100 in
  ignore (Store.alloc store ~class_id:0 ~n_fields:0 ~scalar_bytes:80 ~finalizable:false);
  match
    Store.alloc store ~class_id:0 ~n_fields:0 ~scalar_bytes:80 ~finalizable:false
  with
  | _ -> Alcotest.fail "expected Heap_full"
  | exception Store.Heap_full { requested; _ } ->
    Alcotest.(check int) "requested size" 88 requested

let test_free_and_reuse () =
  let store = Store.create ~limit_bytes:1_000 in
  let obj = Store.alloc store ~class_id:0 ~n_fields:0 ~scalar_bytes:8 ~finalizable:false in
  let id = obj.Heap_obj.id in
  Store.free store obj;
  Alcotest.(check int) "used back to zero" 0 (Store.used_bytes store);
  Alcotest.(check bool) "not live" false (Store.mem store id);
  Alcotest.check_raises "dangling get" (Store.Dangling_reference id) (fun () ->
      ignore (Store.get store id));
  let obj2 = Store.alloc store ~class_id:0 ~n_fields:0 ~scalar_bytes:8 ~finalizable:false in
  Alcotest.(check int) "identifier recycled" id obj2.Heap_obj.id

let test_double_free_rejected () =
  let store = Store.create ~limit_bytes:1_000 in
  let obj = Store.alloc store ~class_id:0 ~n_fields:0 ~scalar_bytes:8 ~finalizable:false in
  Store.free store obj;
  Alcotest.check_raises "double free"
    (Invalid_argument "Store.free: object is not live in this store") (fun () ->
      Store.free store obj)

let test_swapped_out_credit () =
  let store = Store.create ~limit_bytes:100 in
  ignore (Store.alloc store ~class_id:0 ~n_fields:0 ~scalar_bytes:80 ~finalizable:false);
  Alcotest.(check bool) "would overflow" true (Store.would_overflow store 50);
  Store.set_swapped_out_bytes store 88;
  Alcotest.(check bool) "credited" false (Store.would_overflow store 50)

let test_iter_live_order () =
  let store = Store.create ~limit_bytes:10_000 in
  let objs =
    List.init 5 (fun i ->
        Store.alloc store ~class_id:i ~n_fields:0 ~scalar_bytes:8 ~finalizable:false)
  in
  Store.free store (List.nth objs 2);
  let seen = ref [] in
  Store.iter_live store (fun o -> seen := o.Heap_obj.class_id :: !seen);
  Alcotest.(check (list int)) "slot order, skipping freed" [ 0; 1; 3; 4 ]
    (List.rev !seen)

let prop_accounting_invariant =
  (* Random interleavings of allocation and freeing preserve
     used = sum of live sizes. *)
  QCheck.Test.make ~name:"store: used_bytes equals sum of live sizes" ~count:100
    QCheck.(list (pair bool (int_range 0 64)))
    (fun ops ->
      let store = Store.create ~limit_bytes:1_000_000 in
      let live = ref [] in
      List.iter
        (fun (do_alloc, n) ->
          if do_alloc || !live = [] then
            live :=
              Store.alloc store ~class_id:0 ~n_fields:(n mod 4) ~scalar_bytes:n
                ~finalizable:false
              :: !live
          else begin
            match !live with
            | victim :: rest ->
              Store.free store victim;
              live := rest
            | [] -> ()
          end)
        ops;
      let expected =
        List.fold_left (fun acc (o : Heap_obj.t) -> acc + o.Heap_obj.size_bytes) 0 !live
      in
      Store.used_bytes store = expected
      && Store.object_count store = List.length !live)

let prop_free_ids_fifo =
  (* The free-id ring buffer reuses ids first freed, first reused — the
     order of a FIFO [Queue] of freed ids, kept here as the reference.
     Long free runs make the ring wrap and grow. *)
  QCheck.Test.make ~name:"store: alloc ids follow a FIFO free queue"
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 60) (pair bool (int_range 0 150)))
    (fun ops ->
      let store = Store.create ~limit_bytes:max_int in
      let free_ref = Queue.create () in
      let next_ref = ref 1 in
      let live = ref [] in
      let alloc () =
        let o =
          Store.alloc store ~class_id:0 ~n_fields:0 ~scalar_bytes:8
            ~finalizable:false
        in
        let expected =
          match Queue.take_opt free_ref with
          | Some id -> id
          | None ->
            incr next_ref;
            !next_ref - 1
        in
        live := o :: !live;
        o.Heap_obj.id = expected
      in
      (* frees every [k]-th live object, [k] drawn from the op *)
      let free_some k =
        let keep, doomed =
          List.partition (fun (o : Heap_obj.t) -> o.Heap_obj.id mod (k + 2) <> 0) !live
        in
        List.iter
          (fun (o : Heap_obj.t) ->
            Store.free store o;
            Queue.add o.Heap_obj.id free_ref)
          doomed;
        live := keep
      in
      List.for_all
        (fun (is_alloc, n) ->
          if is_alloc then List.for_all alloc (List.init n (fun _ -> ()))
          else begin
            free_some (n mod 5);
            true
          end)
        ops)

let suite =
  ( "store",
    [
      Alcotest.test_case "alloc accounting" `Quick test_alloc_accounting;
      Alcotest.test_case "heap full" `Quick test_heap_full;
      Alcotest.test_case "free and id reuse" `Quick test_free_and_reuse;
      Alcotest.test_case "double free rejected" `Quick test_double_free_rejected;
      Alcotest.test_case "swapped-out credit" `Quick test_swapped_out_credit;
      Alcotest.test_case "iter_live order" `Quick test_iter_live_order;
      QCheck_alcotest.to_alcotest prop_accounting_invariant;
      QCheck_alcotest.to_alcotest prop_free_ids_fifo;
    ] )
