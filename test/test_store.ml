(* Object store: allocation, accounting, reclamation, identifiers. *)

open Lp_heap

let test_alloc_accounting () =
  let store = Store.create ~limit_bytes:1_000 in
  let obj = Store.alloc store ~class_id:0 ~n_fields:2 ~scalar_bytes:12 ~finalizable:false in
  Alcotest.(check int) "size = header + fields + scalar" (8 + 8 + 12)
    (Store.size_bytes store (Heap_obj.index obj));
  Alcotest.(check int) "used" (Store.size_bytes store (Heap_obj.index obj)) (Store.used_bytes store);
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
  let id = Heap_obj.index obj in
  Store.free store obj;
  Alcotest.(check int) "used back to zero" 0 (Store.used_bytes store);
  Alcotest.(check bool) "not live" false (Store.mem store id);
  Alcotest.check_raises "dangling get" (Store.Dangling_reference id) (fun () ->
      ignore (Store.get store id));
  let obj2 = Store.alloc store ~class_id:0 ~n_fields:0 ~scalar_bytes:8 ~finalizable:false in
  Alcotest.(check int) "identifier recycled" id (Heap_obj.index obj2)

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
  Store.iter_live store (fun o -> seen := Store.class_of store (Heap_obj.index o) :: !seen);
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
        List.fold_left (fun acc (o : Heap_obj.t) -> acc + Store.size_bytes store (Heap_obj.index o)) 0 !live
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
        Heap_obj.index o = expected
      in
      (* frees every [k]-th live object, [k] drawn from the op *)
      let free_some k =
        let keep, doomed =
          List.partition (fun (o : Heap_obj.t) -> Heap_obj.index o mod (k + 2) <> 0) !live
        in
        List.iter
          (fun (o : Heap_obj.t) ->
            Store.free store o;
            Queue.add (Heap_obj.index o) free_ref)
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
    [ 0; -1; -5; min_int; Heap_obj.index b; Store.slot_count store + 1;
      Store.slot_count store + 5_000; max_int ];
  Alcotest.(check bool) "find hits a live id" true
    (Store.find store (Heap_obj.index a) == a);
  Alcotest.(check bool) "mem agrees on a miss" false
    (Store.mem store (Heap_obj.index b));
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
  Alcotest.(check int) "identifier recycled" (Heap_obj.index old) (Heap_obj.index fresh);
  Alcotest.(check bool) "stale record is not live" false
    (Store.is_live store old);
  Alcotest.(check bool) "new occupant is live" true (Store.is_live store fresh)

(* A handle packs its identifier with the generation of its slot: a
   slot's first handle is the plain identifier, and each reuse bumps
   the generation by one. The bits bound both parts: an index fills 32
   bits and a generation 30, wrapping to 0. *)
let test_generations () =
  let store = Store.create ~limit_bytes:1_000 in
  let first = alloc8 store in
  Alcotest.(check int) "first handle: generation 0" 0 (Heap_obj.generation first);
  let id = Heap_obj.index first in
  let prev = ref first in
  for g = 1 to 5 do
    Store.free store !prev;
    let h = alloc8 store in
    Alcotest.(check int) "identifier recycled" id (Heap_obj.index h);
    Alcotest.(check int) "generation bumped" g (Heap_obj.generation h);
    Alcotest.(check bool) "found under its identifier" true (Store.find store id = h);
    Alcotest.(check bool) "the old handle is not live" false (Store.is_live store !prev);
    prev := h
  done;
  let top = Heap_obj.pack ~index:Heap_obj.max_index ~generation:Heap_obj.max_generation in
  Alcotest.(check int) "largest index" Heap_obj.max_index (Heap_obj.index top);
  Alcotest.(check int) "largest generation" Heap_obj.max_generation (Heap_obj.generation top);
  (* the sentinel is the int 0, so this compares the packed bits with 0 *)
  Alcotest.(check bool) "packed bits stay non-negative" true (compare top Store.sentinel > 0);
  Alcotest.(check int) "the generation wraps to 0" 0
    (Heap_obj.next_generation Heap_obj.max_generation);
  Alcotest.(check bool) "a handle is never live in a store too small for it" false
    (Store.is_live store top)

(* Programs of allocations, frees and collections on a store whose live
   set stays small, so identifiers recycle often. After every step,
   every handle the store ever returned is live exactly when [find]
   returns it, a handle freed or collected is never live again, and the
   live ones are. A collection marks a subset of the live objects, as a
   mark would, and settles; the store then sweeps lazily. *)
type handle_op = H_alloc | H_free of int | H_collect of int

let prop_handles_never_revive =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (5, return H_alloc);
          (3, map (fun k -> H_free k) nat);
          (1, map (fun k -> H_collect k) nat);
        ])
  in
  QCheck.Test.make ~name:"store: a handle is live iff find returns it, and never revives"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 200) gen_op))
    (fun ops ->
      let store = Store.create ~limit_bytes:1_000_000 in
      let stats = Gc_stats.create () in
      let live = ref [] and dead = ref [] in
      let kill h = live := List.filter (fun l -> l <> h) !live; dead := h :: !dead in
      let agrees () =
        List.for_all
          (fun h -> Store.is_live store h = (Store.find store (Heap_obj.index h) = h))
          (!live @ !dead)
        && List.for_all (Store.is_live store) !live
        && not (List.exists (Store.is_live store) !dead)
      in
      List.for_all
        (fun op ->
          (match op with
          | H_alloc -> live := alloc8 store :: !live
          | H_free k when !live <> [] ->
            let h = List.nth !live (k mod List.length !live) in
            Store.free store h;
            kill h
          | H_collect k ->
            Store.begin_mark store;
            let kept, doomed =
              List.partition (fun h -> (Heap_obj.index h + k) mod 3 <> 0) !live
            in
            List.iter
              (fun h ->
                let id = Heap_obj.index h in
                Store.set_header store id
                  (Header.with_mark (Store.header store id) (Store.mark_sense store)))
              kept;
            Store.settle store stats ~objects:(List.length kept)
              ~bytes:(List.fold_left (fun acc h -> acc + Store.size_bytes store (Heap_obj.index h)) 0 kept);
            List.iter kill doomed
          | H_free _ -> ());
          agrees ())
        ops)

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
        Store.find store (Heap_obj.index o) == o && Store.is_live store o
      in
      let dead_ok (o : Heap_obj.t) =
        Store.find store (Heap_obj.index o) != o && not (Store.is_live store o)
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
   allocations (either generation), marks, frees and collection ends
   run on a store and on a model of it. A mark finishes the sweep
   first, as a collection's mark does; a collection end settles the
   store with the marked totals the model counts, and the store then
   sweeps lazily. The model holds the live objects with their
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
  | Sweep

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
          (1, return Sweep);
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
        Queue.push (Heap_obj.index m.handle) fifo
      in
      let sum f = List.fold_left (fun acc m -> acc + f m) 0 !live in
      (* Settles the open mark, opening one first if there is none: the
         objects the model marked survive, the others are doomed. *)
      let settle () =
        if not (Store.mark_open store) then Store.begin_mark store;
        let doomed =
          List.filter (fun m -> not m.marked) !live
          |> List.sort (fun a b ->
                 compare (Heap_obj.index b.handle) (Heap_obj.index a.handle))
        in
        let marked = List.filter (fun m -> m.marked) !live in
        let total f = List.fold_left (fun acc m -> acc + f m) 0 marked in
        Store.settle store stats ~objects:(List.length marked)
          ~bytes:(total (fun m -> m.size));
        List.iter release doomed;
        List.iter (fun m -> m.marked <- false) !live;
        swept_live := sum (fun m -> m.size)
      in
      let agrees () =
        let live_ok m =
          let id = Heap_obj.index m.handle in
          let h = Store.header store id in
          Store.find store id == m.handle
          && Store.is_live store m.handle
          && Store.marked store id = (m.marked || not (Store.mark_open store))
          && Header.in_nursery h = m.young
          && Store.size_bytes store id = m.size
          && Store.class_of store id = m.cls
        in
        let free_ok id =
          Store.find store id == Store.sentinel
          && not (Store.mem store id)
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
              (* nothing is allocated while a mark is open *)
              if Store.mark_open store then settle ();
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
              Heap_obj.index handle = expected
            | Mark k when !live <> [] ->
              let m = nth k in
              let id = Heap_obj.index m.handle in
              if not (Store.mark_open store) then Store.begin_mark store;
              Store.set_header store id
                (Header.with_mark (Store.header store id) (Store.mark_sense store));
              m.marked <- true;
              true
            | Free k when !live <> [] ->
              let m = nth k in
              Store.free store m.handle;
              release m;
              true
            | Sweep ->
              settle ();
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
      Alcotest.test_case "generations: reuse bumps, the bits wrap" `Quick
        test_generations;
      QCheck_alcotest.to_alcotest prop_handles_never_revive;
      QCheck_alcotest.to_alcotest prop_flat_store_model;
    ] )
