(* Object store: allocation, accounting, reclamation, identifiers. *)

open Lp_heap

let test_alloc_accounting () =
  let store = Store.create ~limit_bytes:1_000 in
  let obj = Store.alloc store ~class_id:0 ~n_fields:2 ~scalar_bytes:12 ~finalizable:false in
  Alcotest.(check int) "size = header + fields + scalar" (8 + 8 + 12)
    (Store.size_bytes store obj.Heap_obj.id);
  Alcotest.(check int) "used" (Store.size_bytes store obj.Heap_obj.id) (Store.used_bytes store);
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
  Store.iter_live store (fun o -> seen := Store.class_of store o.Heap_obj.id :: !seen);
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
        List.fold_left (fun acc (o : Heap_obj.t) -> acc + Store.size_bytes store o.Heap_obj.id) 0 !live
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

(* The sentinel is the store's only miss value: it must come back from
   every failed lookup and from nowhere else. *)

let alloc8 store =
  Store.alloc store ~class_id:0 ~n_fields:1 ~scalar_bytes:8 ~finalizable:false

let test_find_misses () =
  let store = Store.create ~limit_bytes:10_000 in
  let a = alloc8 store in
  let b = alloc8 store in
  Store.free store b;
  let miss id =
    Alcotest.(check bool)
      (Printf.sprintf "find %d is the sentinel" id)
      true
      (Store.find store id == Store.sentinel)
  in
  List.iter miss
    [ 0; -1; -5; min_int; b.Heap_obj.id; Store.slot_count store + 1;
      Store.slot_count store + 5_000; max_int ];
  Alcotest.(check bool) "find hits a live id" true
    (Store.find store a.Heap_obj.id == a);
  Alcotest.(check bool) "mem agrees on a miss" false
    (Store.mem store b.Heap_obj.id);
  Alcotest.check_raises "get raises on a miss" (Store.Dangling_reference 0)
    (fun () -> ignore (Store.get store 0))

let test_iterators_skip_sentinel () =
  let store = Store.create ~limit_bytes:100_000 in
  let objs = Array.init 40 (fun _ -> alloc8 store) in
  Array.iteri (fun i o -> if i mod 3 = 0 then Store.free store o) objs;
  let check name iter =
    let n = ref 0 in
    iter (fun (o : Heap_obj.t) ->
        incr n;
        if o == Store.sentinel then Alcotest.failf "%s yielded the sentinel" name;
        if not (Store.is_live store o) then
          Alcotest.failf "%s yielded a dead object" name);
    Alcotest.(check int) (name ^ " count") (Store.object_count store) !n
  in
  check "iter_live" (Store.iter_live store)

let test_free_sentinel_rejected () =
  let store = Store.create ~limit_bytes:1_000 in
  ignore (alloc8 store);
  Alcotest.check_raises "free sentinel"
    (Invalid_argument "Store.free: object is not live in this store") (fun () ->
      Store.free store Store.sentinel);
  Alcotest.(check bool) "sentinel is never live" false
    (Store.is_live store Store.sentinel)

let test_is_live_recycled () =
  let store = Store.create ~limit_bytes:1_000 in
  let old = alloc8 store in
  Alcotest.(check bool) "live while allocated" true (Store.is_live store old);
  Store.free store old;
  let fresh = alloc8 store in
  Alcotest.(check int) "identifier recycled" old.Heap_obj.id fresh.Heap_obj.id;
  Alcotest.(check bool) "stale record is not live" false
    (Store.is_live store old);
  Alcotest.(check bool) "new occupant is live" true (Store.is_live store fresh)

let prop_find_iff_live =
  (* Random alloc/free sequences: [find t o.id == o] exactly for the
     objects still live, and every other probed id misses. *)
  QCheck.Test.make ~name:"store: find returns an object exactly when it is live"
    ~count:200
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let store = Store.create ~limit_bytes:max_int in
      let live = ref [] and dead = ref [] in
      List.iter
        (fun (do_alloc, n) ->
          if do_alloc || !live = [] then live := alloc8 store :: !live
          else begin
            let k = n mod List.length !live in
            let victim = List.nth !live k in
            Store.free store victim;
            live := List.filter (fun o -> o != victim) !live;
            dead := victim :: !dead
          end)
        ops;
      let live_ok (o : Heap_obj.t) =
        Store.find store o.Heap_obj.id == o && Store.is_live store o
      in
      let dead_ok (o : Heap_obj.t) =
        Store.find store o.Heap_obj.id != o && not (Store.is_live store o)
      in
      let misses_ok =
        List.for_all
          (fun id ->
            let o = Store.find store id in
            (o == Store.sentinel) = not (List.exists (fun l -> l == o) !live))
          (List.init (Store.slot_count store + 3) (fun i -> i - 1))
      in
      List.for_all live_ok !live && List.for_all dead_ok !dead && misses_ok)

(* The flat store against a list model. Random sequences of
   allocations (either generation), marks, frees and segmented sweeps
   run on a store and on a model of it: the live objects with their
   handle, size, class, generation and mark, the handles freed so far,
   and the FIFO of free identifiers. After every step the store must
   agree with the model: every live handle is found and live with its
   recorded state, no freed handle is live (even once its identifier
   is reused), every queued free identifier finds the sentinel, each
   allocation takes the identifier the model's FIFO predicts, and the
   used, live, nursery and count totals match. *)
type store_op =
  | Alloc of { n_fields : int; scalar : int; nursery : bool }
  | Mark of int
  | Free of int
  | Sweep of int

type model_obj = {
  handle : Heap_obj.t;
  size : int;
  cls : int;
  young : bool;
  mutable marked : bool;
}

let prop_flat_store_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 5,
            map3
              (fun n_fields scalar nursery -> Alloc { n_fields; scalar; nursery })
              (int_bound 5) (int_bound 40) bool );
          (3, map (fun k -> Mark k) nat);
          (1, map (fun k -> Free k) nat);
          (1, map (fun seg -> Sweep (1 + seg)) (int_bound 12));
        ])
  in
  QCheck.Test.make ~name:"store: flat arrays agree with a list model"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 150) gen_op))
    (fun ops ->
      let store = Store.create ~limit_bytes:1_000_000 in
      let stats = Gc_stats.create () in
      let live = ref [] and dead = ref [] in
      let fifo = Queue.create () and next = ref 1 in
      let swept_live = ref 0 in
      let nth k = List.nth !live (k mod List.length !live) in
      let release (m : model_obj) =
        live := List.filter (fun l -> l != m) !live;
        dead := m.handle :: !dead;
        Queue.push m.handle.Heap_obj.id fifo
      in
      let sum f = List.fold_left (fun acc m -> acc + f m) 0 !live in
      let agrees () =
        let live_ok m =
          let id = m.handle.Heap_obj.id in
          let h = Store.header store id in
          Store.find store id == m.handle
          && Store.is_live store m.handle
          && Header.marked h = m.marked
          && Header.in_nursery h = m.young
          && Store.size_bytes store id = m.size
          && Store.class_of store id = m.cls
        in
        let free_ok id =
          Store.find store id == Store.sentinel
          && (not (Store.mem store id))
          && Header.is_free (Store.header store id)
        in
        List.for_all live_ok !live
        && List.for_all (fun h -> not (Store.is_live store h)) !dead
        && Queue.fold (fun ok id -> ok && free_ok id) true fifo
        && Store.used_bytes store = sum (fun m -> m.size)
        && Store.nursery_bytes store
           = sum (fun m -> if m.young then m.size else 0)
        && Store.object_count store = List.length !live
        && Store.slot_count store = !next - 1
        && Store.live_bytes store = !swept_live
      in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Alloc { n_fields; scalar; nursery } ->
              let expected =
                if Queue.is_empty fifo then begin
                  incr next;
                  !next - 1
                end
                else Queue.pop fifo
              in
              let handle =
                Store.alloc_generation store ~nursery ~class_id:n_fields
                  ~n_fields ~scalar_bytes:scalar ~finalizable:false
              in
              live :=
                {
                  handle;
                  size = Heap_obj.size_of ~n_fields ~scalar_bytes:scalar;
                  cls = n_fields;
                  young = nursery;
                  marked = false;
                }
                :: !live;
              handle.Heap_obj.id = expected
            | Mark k when !live <> [] ->
              let m = nth k in
              let id = m.handle.Heap_obj.id in
              Store.set_header store id (Header.set_marked (Store.header store id));
              m.marked <- true;
              true
            | Free k when !live <> [] ->
              let m = nth k in
              Store.free store m.handle;
              release m;
              true
            | Sweep seg ->
              let doomed =
                List.filter (fun m -> not m.marked) !live
                |> List.sort (fun a b ->
                       compare b.handle.Heap_obj.id a.handle.Heap_obj.id)
              in
              Collector.sweep (Collector.create ~slice_budget:seg ()) store
                ~stats;
              List.iter release doomed;
              List.iter (fun m -> m.marked <- false) !live;
              swept_live := sum (fun m -> m.size);
              true
            | Mark _ | Free _ -> true
          in
          step_ok && agrees ())
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
      Alcotest.test_case "find misses return the sentinel" `Quick test_find_misses;
      Alcotest.test_case "iterators never yield the sentinel" `Quick
        test_iterators_skip_sentinel;
      Alcotest.test_case "free of the sentinel rejected" `Quick
        test_free_sentinel_rejected;
      Alcotest.test_case "is_live false after id recycling" `Quick
        test_is_live_recycled;
      QCheck_alcotest.to_alcotest prop_find_iff_live;
      QCheck_alcotest.to_alcotest prop_flat_store_model;
    ] )
