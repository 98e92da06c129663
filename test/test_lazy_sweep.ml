(* The lazy sweep against the eager one. A collection ends at the mark
   ([Collector.sweep] only settles the store's totals) and the store
   frees dead slots as allocation reaches them; the reference
   collector's sweep frees them all at once, in descending slot order.
   A seeded property drives random store programs on two stores, one
   collected each way: allocations of mixed field counts in either
   generation, reference writes, root drops, collections, frees such as
   a minor collection makes, minor collections themselves, and large
   allocations that repack the word array, often while a range is
   still unswept. Every program collects at least three times, the last
   times with a sweep left part way between them. After every step the
   two stores must agree on the identifiers allocations get, the used,
   live, nursery and object totals, the word array's capacity, the
   Gc_stats counters, and [Store.mem], [Store.find] and the header but
   its mark of every slot. The engine marks in the header and the
   reference collector in a table of its own, so only the engine's
   headers carry the mark. *)

open Lp_heap

type op =
  | Alloc of { n_fields : int; scalar : int; nursery : bool; slot : int }
  | Big of { n_fields : int; slot : int }
  | Write of { src : int; field : int; tgt : int }
  | Drop of int
  | Collect
  | Free of int
  | Minor

let limit_bytes = 16_000

let root_slots = 6

let pp_op = function
  | Alloc { n_fields; scalar; nursery; slot } ->
    Printf.sprintf "alloc %d fields %d bytes%s -> slot %d" n_fields scalar
      (if nursery then " young" else "")
      slot
  | Big { n_fields; slot } -> Printf.sprintf "big %d fields -> slot %d" n_fields slot
  | Write { src; field; tgt } -> Printf.sprintf "write %d.%d <- %d" src field tgt
  | Drop slot -> Printf.sprintf "drop slot %d" slot
  | Collect -> "collect"
  | Free k -> Printf.sprintf "free %d" k
  | Minor -> "minor"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map3
            (fun (n_fields, scalar) nursery slot ->
              Alloc { n_fields; scalar; nursery; slot })
            (pair (int_range 0 5) (int_range 0 48))
            (frequencyl [ (3, false); (1, true) ])
            (int_range 0 (root_slots - 1)) );
        ( 1,
          map2
            (fun n_fields slot -> Big { n_fields; slot })
            (int_range 100 400)
            (int_range 0 (root_slots - 1)) );
        (6, map3 (fun src field tgt -> Write { src; field; tgt }) nat nat nat);
        (2, map (fun slot -> Drop slot) (int_range 0 (root_slots - 1)));
        (2, return Collect);
        (1, map (fun k -> Free k) nat);
        (1, return Minor);
      ])

(* A program: forty small allocations, most of them left unrooted, so
   the heap has more slots than one sweep step visits; a random body;
   then three collections with one small allocation between them, each
   of which sweeps only part of the heap. *)
let gen_program =
  let small slot = Alloc { n_fields = 0; scalar = 0; nursery = false; slot } in
  QCheck.Gen.map
    (fun body ->
      List.init 40 (fun i -> small (i mod root_slots))
      @ body
      @ [ Collect; small 0; Collect; small 1; Collect ])
    QCheck.Gen.(list_size (int_range 20 200) gen_op)

(* One store with its roots, counters and collector: [engine] is the
   engine for the lazy side and [None] for the reference side. *)
type side = {
  store : Store.t;
  roots : Roots.t;
  frame : Roots.frame;
  stats : Gc_stats.t;
  engine : Collector.t option;
  mutable gc : int;
  mutable live : int;  (* the reference side's live bytes *)
}

let side engine =
  let roots = Roots.create () in
  {
    store = Store.create ~limit_bytes;
    roots;
    frame = Roots.push_frame (Roots.spawn_thread roots) ~n_slots:root_slots;
    stats = Gc_stats.create ();
    engine;
    gc = 0;
    live = 0;
  }

(* A collection that ticks staleness and sets untouched bits, so the
   survivors' headers differ from collection to collection. *)
let collect s =
  s.gc <- s.gc + 1;
  let config =
    {
      Collector.base_config with
      Collector.set_untouched_bits = true;
      stale_tick_gc = Some s.gc;
    }
  in
  match s.engine with
  | Some e ->
    ignore (Collector.mark e s.store s.roots ~stats:s.stats ~config);
    Collector.sweep e s.store ~stats:s.stats
  | None ->
    ignore (Reference_collector.mark s.store s.roots ~stats:s.stats ~config);
    s.live <- Reference_collector.sweep s.store ~stats:s.stats

let live_ids s =
  let ids = ref [] in
  Store.iter_live s.store (fun o -> ids := Heap_obj.index o :: !ids);
  Array.of_list (List.rev !ids)

(* Allocates like a VM: a collection first when the object does not fit,
   nothing when it still does not. Returns the identifier, or 0. *)
let alloc s ~nursery ~n_fields ~scalar slot =
  let size = Heap_obj.size_of ~n_fields ~scalar_bytes:scalar in
  if Store.would_overflow s.store size then collect s;
  if Store.would_overflow s.store size then 0
  else begin
    let obj =
      Store.alloc_generation s.store ~nursery ~class_id:n_fields ~n_fields
        ~scalar_bytes:scalar ~finalizable:false
    in
    Roots.set_slot s.frame slot (Heap_obj.index obj);
    Heap_obj.index obj
  end

let step s op =
  match op with
  | Alloc { n_fields; scalar; nursery; slot } ->
    alloc s ~nursery ~n_fields ~scalar slot
  | Big { n_fields; slot } -> alloc s ~nursery:false ~n_fields ~scalar:0 slot
  | Write { src; field; tgt } ->
    let ids = live_ids s in
    let n = Array.length ids in
    if n > 0 then begin
      let src = ids.(src mod n) in
      let nf = Store.n_fields s.store src in
      if nf > 0 then
        Store.set_field s.store src (field mod nf)
          (if tgt mod (n + 1) = n then Word.null else Word.of_id ids.(tgt mod n))
    end;
    0
  | Drop slot ->
    Roots.set_slot s.frame slot 0;
    0
  | Collect ->
    collect s;
    0
  | Free k ->
    (* as a minor collection frees: no root names the object, though a
       word may (the next mark quarantines it) *)
    let ids = live_ids s in
    if Array.length ids > 0 then begin
      let id = ids.(k mod Array.length ids) in
      for slot = 0 to root_slots - 1 do
        if Roots.get_slot s.frame slot = id then Roots.set_slot s.frame slot 0
      done;
      Store.free s.store (Store.get s.store id)
    end;
    0
  | Minor ->
    ignore (Minor_collector.collect s.store s.roots ~remset:(Remset.create ()));
    0

(* A slot as the program sees it: whether it is live, the handle
   [find] gives, and a live object's header but its mark. *)
let slot s id =
  let live = Store.mem s.store id in
  ( live,
    Store.find s.store id,
    if live then Header.with_mark (Store.header s.store id) 0 else Header.free )

let state s =
  let n = Store.slot_count s.store in
  ( ( Store.used_bytes s.store,
      (match s.engine with Some _ -> Store.live_bytes s.store | None -> s.live),
      Store.object_count s.store,
      Store.nursery_bytes s.store,
      n,
      Store.word_capacity s.store ),
    Gc_stats.copy s.stats,
    List.init n (fun i -> slot s (i + 1)) )

(* Runs [ops] on a lazy and an eager side; [Ok ()] when they agree after
   every step, else the first step where they do not. *)
let run ops =
  let lazy_ = side (Some (Collector.create ())) and eager = side None in
  let rec go i = function
    | [] -> Ok ()
    | op :: rest ->
      let id_lazy = step lazy_ op and id_eager = step eager op in
      if id_lazy <> id_eager then
        Error (Printf.sprintf "step %d (%s): id %d, eager %d" i (pp_op op) id_lazy id_eager)
      else if state lazy_ <> state eager then
        Error (Printf.sprintf "step %d (%s): the stores differ" i (pp_op op))
      else go (i + 1) rest
  in
  go 0 ops

let prop_lazy_matches_eager =
  QCheck.Test.make ~name:"lazy sweep: the store matches an eager sweep's"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map pp_op ops))
       gen_program)
    (fun ops ->
      match run ops with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* The case the property must not miss: a repacking of the word array
   while a collection's slots are unswept. Four large objects of
   distinct field counts take nearly all of the starting array from its
   top, and fifty small ones with no fields take the slots above
   theirs. After a collection three large objects are dead, below the
   slots the next allocation's sweep step reaches, and a fifth large
   object needs more words than the top has left, so the array is
   repacked. The dead objects' words must not count as live there: with
   them the array would grow, without them it keeps its size, as it
   does after an eager sweep. *)
let test_repack_while_unswept () =
  let ops =
    List.init 4 (fun i -> Big { n_fields = 450 + i; slot = 0 })
    @ List.init 50 (fun i ->
          Alloc { n_fields = 0; scalar = 0; nursery = false; slot = 1 + (i mod 2) })
    @ [ Collect; Big { n_fields = 454; slot = 3 } ]
  in
  let lazy_ = side (Some (Collector.create ())) in
  let last = List.length ops - 1 in
  List.iteri
    (fun i op ->
      if i = last then begin
        Alcotest.(check bool) "slots unswept before the fifth large object" true
          (Store.unswept lazy_.store > 0);
        let capacity = Store.word_capacity lazy_.store in
        ignore (step lazy_ op);
        Alcotest.(check int) "the repacking finished the sweep" 0
          (Store.unswept lazy_.store);
        Alcotest.(check int) "and kept no dead object's words" capacity
          (Store.word_capacity lazy_.store)
      end
      else ignore (step lazy_ op))
    ops;
  match run ops with Ok () -> () | Error msg -> Alcotest.fail msg

(* With one mark bit, an object collection N left dead and unswept
   already carries the sense collection N+1 marks with. It must read as
   dead while N+1's mark is open and after N+1 settles, and the objects
   N+1 keeps must survive: the next mark finishes N's sweep before it
   flips the sense. *)
let test_unswept_dead_through_next_mark () =
  let store = Store.create ~limit_bytes in
  let roots = Roots.create () in
  let alloc n_fields =
    Store.alloc store ~class_id:0 ~n_fields ~scalar_bytes:0 ~finalizable:false
  in
  let keep = alloc 1 in
  Roots.add_static_root roots (Heap_obj.index keep);
  let x = alloc 0 in
  for _ = 1 to 63 do
    ignore (alloc 0)
  done;
  let engine = Collector.create () and stats = Gc_stats.create () in
  let dead what =
    Alcotest.(check bool) (what ^ ": not live") false (Store.mem store (Heap_obj.index x));
    Alcotest.(check bool) (what ^ ": find misses") true
      (Store.find store (Heap_obj.index x) == Store.sentinel);
    Alcotest.(check bool) (what ^ ": the handle is dead") false (Store.is_live store x);
    Alcotest.(check bool) (what ^ ": not marked") false
      (Store.marked store (Heap_obj.index x))
  in
  ignore (Collector.mark engine store roots ~stats ~config:Collector.base_config);
  Collector.sweep engine store ~stats;
  dead "after collection N";
  (* one allocation sweeps part of the heap, from the top *)
  let y = alloc 0 in
  Store.set_field store (Heap_obj.index keep) 0 (Word.of_id (Heap_obj.index y));
  Alcotest.(check bool) "x is still unswept" true
    (Heap_obj.index x <= Store.unswept store);
  Alcotest.(check bool) "x's slot is not free yet" false
    (Header.is_free (Store.header store (Heap_obj.index x)));
  ignore (Collector.mark engine store roots ~stats ~config:Collector.base_config);
  dead "while N+1's mark is open";
  Collector.sweep engine store ~stats;
  dead "after N+1 settles";
  Alcotest.(check bool) "keep survives" true (Store.is_live store keep);
  Alcotest.(check bool) "y survives" true (Store.is_live store y);
  Alcotest.(check int) "two objects" 2 (Store.object_count store);
  Alcotest.(check int) "64 swept by N, none by N+1" 64 stats.Gc_stats.objects_swept

let suite =
  ( "lazy_sweep",
    [
      QCheck_alcotest.to_alcotest prop_lazy_matches_eager;
      Alcotest.test_case "a repacking while slots are unswept" `Quick
        test_repack_while_unswept;
      Alcotest.test_case "an object left unswept reads as dead through the next mark"
        `Quick test_unswept_dead_through_next_mark;
    ] )
