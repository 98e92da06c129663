(* Trace_engine conformance: the same SELECT-shaped and PRUNE-shaped
   collections, driven through the engine record alone, must leave every
   engine's heap in the same state — same claimed bytes, same survivors,
   same poisoned words, same recycled identifiers, same counters. The
   suite instantiates one scenario per engine (single-domain with no
   budget and at 1- and 8-object budgets, parallel and sliced-parallel
   on 2 domains with and without stealing) and compares the full
   summaries against the reference collector, plus the budgeted
   engine's slicing under a tiny budget. *)

open Lp_heap

let inc ?slice_budget () = Inc_engine.engine (Inc_engine.create ?slice_budget ())

(* [dense] deals one object per packet with no inline threshold, so
   every round goes to the deques and cross-worker stealing (or, with
   [steal] off, the legacy shared-counter claim) is as dense as the
   engine can make it. *)
let par ?slice_budget ?(dense = false) ?steal () =
  let packet_size, inline_threshold = if dense then (Some 1, Some 1) else (None, None) in
  Lp_par.Par_engine.engine
    (Lp_par.Par_engine.create ?packet_size ?inline_threshold ?steal
       ?slice_budget
       (Lp_par.Domain_pool.create ~domains:2))

(* Every engine the VM can build, against the reference collector. *)
let factories =
  [
    ("ref", Reference_collector.engine);
    ("seq", fun () -> inc ());
    ("inc1", fun () -> inc ~slice_budget:1 ());
    ("inc8", fun () -> inc ~slice_budget:8 ());
    ("par2", fun () -> par ());
    ("par2s", fun () -> par ~dense:true ());
    ("par2ns", fun () -> par ~dense:true ~steal:false ());
    ("bsp2", fun () -> par ~slice_budget:8 ());
    ("bsp2s", fun () -> par ~slice_budget:8 ~dense:true ());
    ("bsp2ns", fun () -> par ~slice_budget:8 ~dense:true ~steal:false ());
  ]

let build_store () = Store.create ~limit_bytes:1_000_000

let alloc store ~n_fields =
  Store.alloc store ~class_id:0 ~n_fields ~scalar_bytes:0 ~finalizable:false

let link (src : Heap_obj.t) i (tgt : Heap_obj.t) =
  src.Heap_obj.fields.(i) <- Word.of_id tgt.Heap_obj.id

let live_ids store =
  let ids = ref [] in
  Store.iter_live store (fun o -> ids := o.Heap_obj.id :: !ids);
  List.rev !ids

(* One full engine workout. Graph: root a -> b -> c is the doomed
   chain, a -> d stays in use, e is plain garbage. A SELECT-shaped
   collection defers a->b and claims {b, c}; a PRUNE-shaped collection
   poisons a->b and sweeps the chain; then two allocations exercise
   identifier recycling over the freed slots. Returns everything
   observable so the caller can compare engines structurally. *)
let run_scenario make =
  let e = make () in
  let store = build_store () in
  let roots = Roots.create () in
  let stats = Gc_stats.create () in
  let a = alloc store ~n_fields:2 in
  let b = alloc store ~n_fields:1 in
  let c = alloc store ~n_fields:0 in
  let d = alloc store ~n_fields:0 in
  ignore (alloc store ~n_fields:0);
  Roots.add_static_root roots a.Heap_obj.id;
  link a 0 b;
  link b 0 c;
  link a 1 d;
  let defer_b (edge : Collector.edge) =
    if edge.Collector.tgt.Heap_obj.id = b.Heap_obj.id then Collector.Defer
    else Collector.Trace
  in
  let deferred =
    e.Trace_engine.mark ~gc:1 store roots ~stats
      ~config:
        {
          Collector.set_untouched_bits = true;
          stale_tick_gc = Some 1;
          edge_filter = Some defer_b;
          on_poison = None;
          events = None;
        }
  in
  let candidates = Trace_common.canonical_candidates deferred in
  e.Trace_engine.begin_stale ();
  let claimed =
    List.fold_left
      (fun acc edge ->
        acc
        + e.Trace_engine.stale_closure ~gc:1 store ~stats
            ~set_untouched_bits:true ~stale_tick_gc:(Some 1) edge)
      0 candidates
  in
  e.Trace_engine.end_stale ~gc:1 ~events:None;
  e.Trace_engine.sweep ~gc:1 store ~stats;
  let live_after_select = live_ids store in
  let poisoned = ref [] in
  let poison_b (edge : Collector.edge) =
    if edge.Collector.tgt.Heap_obj.id = b.Heap_obj.id then Collector.Poison
    else Collector.Trace
  in
  ignore
    (e.Trace_engine.mark ~gc:2 store roots ~stats
       ~config:
         {
           Collector.set_untouched_bits = false;
           stale_tick_gc = None;
           edge_filter = Some poison_b;
           on_poison =
             Some
               (fun (edge : Collector.edge) ->
                 poisoned :=
                   (edge.Collector.src.Heap_obj.id, edge.Collector.field)
                   :: !poisoned);
           events = None;
         });
  e.Trace_engine.sweep ~gc:2 store ~stats;
  let live_after_prune = live_ids store in
  let word_poisoned = Word.poisoned a.Heap_obj.fields.(0) in
  let n1 = alloc store ~n_fields:0 in
  let n2 = alloc store ~n_fields:0 in
  e.Trace_engine.shutdown ();
  ( (List.length candidates, claimed, live_after_select),
    (!poisoned, word_poisoned, live_after_prune),
    (n1.Heap_obj.id, n2.Heap_obj.id),
    Gc_stats.copy stats )

let test_conformance () =
  let summaries = List.map (fun (n, f) -> (n, run_scenario f)) factories in
  let _, baseline = List.hd summaries in
  let (candidates, claimed, after_select), (poisoned, word_poisoned, _), _, _ =
    baseline
  in
  (* absolute checks on the reference baseline, so the cross-engine
     equality below cannot vacuously pass on a broken scenario *)
  Alcotest.(check int) "one deferred candidate" 1 candidates;
  Alcotest.(check int) "select swept only the plain garbage" 4
    (List.length after_select);
  Alcotest.(check bool) "claimed bytes positive" true (claimed > 0);
  Alcotest.(check (list (pair int int))) "prune poisoned exactly a.0"
    [ (1, 0) ] poisoned;
  Alcotest.(check bool) "the pruned word carries the poison bit" true
    word_poisoned;
  List.iter
    (fun (name, summary) ->
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: claimed bytes, survivors, poisoned words, recycled ids and \
            counters all match the reference"
           name)
        true
        (summary = baseline))
    (List.tl summaries);
  Alcotest.(check int) "no leaked domains" 0 (Lp_par.Domain_pool.active_count ())

(* A one-object budget must slice a multi-object heap many times, never
   scan more than one object per slice, and still mark every reachable
   object. *)
let test_inc_slicing_respects_budget () =
  let inc = Inc_engine.create ~slice_budget:1 () in
  let e = Inc_engine.engine inc in
  let store = build_store () in
  let roots = Roots.create () in
  let stats = Gc_stats.create () in
  let root = alloc store ~n_fields:10 in
  Roots.add_static_root roots root.Heap_obj.id;
  for i = 0 to 9 do
    link root i (alloc store ~n_fields:0)
  done;
  ignore
    (e.Trace_engine.mark ~gc:1 store roots ~stats
       ~config:Collector.base_config);
  e.Trace_engine.sweep ~gc:1 store ~stats;
  Alcotest.(check int) "all 11 objects marked" 11 stats.Gc_stats.objects_marked;
  Alcotest.(check int) "max slice work bounded by the budget" 1
    (e.Trace_engine.max_slice_work ());
  Alcotest.(check bool) "at least 11 slices ran" true (Inc_engine.slices inc >= 11);
  let pauses = e.Trace_engine.take_pauses () in
  let count ph = List.length (List.filter (fun (p, _) -> p = ph) pauses) in
  Alcotest.(check int) "one Mark_slice sample per mark slice"
    (Inc_engine.slices inc)
    (count Trace_engine.Mark_slice);
  Alcotest.(check bool) "the sweep contributed tagged segment samples" true
    (count Trace_engine.Sweep_slice >= 1);
  Alcotest.(check int) "a sliced engine never reports Monolithic" 0
    (count Trace_engine.Monolithic);
  Alcotest.(check int) "take_pauses drains" 0
    (List.length (e.Trace_engine.take_pauses ()))

(* Mid-run engine switching: the pause-SLO autopilot swaps engines
   between collections (through Controller.set_engine), which is only
   sound if a mixed schedule behaves exactly like any fixed engine —
   the determinism contract, now exercised across a swap seam. Each
   scenario builds a seeded random graph, runs three collections under
   a per-collection engine schedule (every collection gets a fresh
   engine, shut down at the boundary, exactly like Vm.switch_engine),
   and mutates the surviving graph between collections. The full
   observable state — live ids, object counts, counters — must match
   the reference collector's, for the seq -> inc -> par schedule and
   for every engine run fixed. *)
let run_switch_scenario ~seed schedule =
  let rng = Random.State.make [| seed |] in
  let store = build_store () in
  let roots = Roots.create () in
  let stats = Gc_stats.create () in
  let n = 20 + Random.State.int rng 20 in
  let arr =
    Array.init n (fun _ -> alloc store ~n_fields:(Random.State.int rng 4))
  in
  Array.iter
    (fun (o : Heap_obj.t) ->
      Array.iteri
        (fun i _ ->
          if Random.State.bool rng then
            link o i arr.(Random.State.int rng n))
        o.Heap_obj.fields)
    arr;
  for _ = 1 to 1 + Random.State.int rng 3 do
    Roots.add_static_root roots arr.(Random.State.int rng n).Heap_obj.id
  done;
  let mutate () =
    let live = ref [] in
    Store.iter_live store (fun o -> live := o :: !live);
    let live = Array.of_list (List.rev !live) in
    let nl = Array.length live in
    if nl > 0 then begin
      for _ = 1 to 5 do
        let src = live.(Random.State.int rng nl) in
        let nf = Array.length src.Heap_obj.fields in
        if nf > 0 then
          link src (Random.State.int rng nf) live.(Random.State.int rng nl)
      done;
      for _ = 1 to 3 do
        let o = alloc store ~n_fields:(Random.State.int rng 3) in
        let keep = Random.State.bool rng in
        let dst = live.(Random.State.int rng nl) in
        let nf = Array.length dst.Heap_obj.fields in
        if keep && nf > 0 then link dst (Random.State.int rng nf) o
      done
    end
  in
  List.mapi
    (fun i make ->
      let gc = i + 1 in
      let e = make () in
      ignore
        (e.Trace_engine.mark ~gc store roots ~stats
           ~config:Collector.base_config);
      e.Trace_engine.sweep ~gc store ~stats;
      ignore (e.Trace_engine.take_pauses ());
      e.Trace_engine.shutdown ();
      mutate ();
      (live_ids store, Store.object_count store, Gc_stats.copy stats))
    schedule

let test_engine_switch_conformance () =
  let seq = List.assoc "seq" factories
  and inc8 = List.assoc "inc8" factories
  and par2 = List.assoc "par2" factories
  and par_s = List.assoc "par2s" factories
  and bsp_s = List.assoc "bsp2s" factories in
  for seed = 1 to 25 do
    let reference =
      run_switch_scenario ~seed
        [ Reference_collector.engine; Reference_collector.engine;
          Reference_collector.engine ]
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: seq->inc->par matches the reference" seed)
      true
      (run_switch_scenario ~seed [ seq; inc8; par2 ] = reference);
    List.iter
      (fun (name, fixed) ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: all-%s matches the reference" seed name)
          true
          (run_switch_scenario ~seed [ fixed; fixed; fixed ] = reference))
      (List.tl factories);
    (* a schedule that hops between stealing and non-stealing parallel
       engines mid-run must also land on the same state *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: par-steal->seq->bsp-steal matches" seed)
      true
      (run_switch_scenario ~seed [ par_s; seq; bsp_s ] = reference)
  done;
  Alcotest.(check int) "no leaked domains" 0 (Lp_par.Domain_pool.active_count ())

(* Property: on generated heaps, the single-domain engine with no
   budget and at 1- and 8-object budgets leaves everything exactly as
   the reference collector does. A heap is a list of objects, each
   with a stale counter, a scalar size, a liveness flag (dead objects
   are freed before wiring, so words naming them dangle) and reference
   words: null, clean or untouched references, poisoned references,
   and references past the last id ever allocated. A collection has a
   random number, ticks or not, sets untouched bits or not, and runs no
   filter or a seeded Trace/Defer/Poison filter that reads the
   target's staleness (so a tick applied too early would change its
   decisions), with or without a note that records the target's
   staleness too. Compared: every slot's header and field words after
   the stale closures and after the sweep, the Gc_stats counters, the
   deferred edges in order, the stale closures' bytes, the poisoned
   edges, the applied notes and the ids the next allocations reuse. *)
type word_spec =
  | Null
  | Ref of int * bool  (* target index, untouched bit *)
  | Poisoned of int
  | Past of int  (* an id this many past the next fresh one *)

type obj_spec = {
  live : bool;
  stale : int;
  scalar : int;
  words : word_spec list;
}

type heap_spec = {
  objs : obj_spec list;
  roots : int list;
  gc : int;
  ticking : bool;
  untouched : bool;
  filter : int option;  (* the filter's seed *)
  note : bool;
}

let gen_heap =
  QCheck.Gen.(
    let* n = int_range 1 30 in
    let word =
      frequency
        [
          (3, return Null);
          (8, map2 (fun j u -> Ref (j, u)) (int_range 0 (n - 1)) bool);
          (1, map (fun j -> Poisoned j) (int_range 0 (n - 1)));
          (1, map (fun k -> Past k) (int_range 0 3));
        ]
    in
    let obj =
      let* live = frequencyl [ (9, true); (1, false) ] in
      let* stale = int_range 0 Header.max_stale in
      let* scalar = int_range 0 24 in
      let* words = list_size (int_range 0 4) word in
      return { live; stale; scalar; words }
    in
    let* objs = list_repeat n obj in
    let* roots = list_size (int_range 0 4) (int_range 0 (n - 1)) in
    let* gc = int_range 1 64 in
    let* ticking = bool in
    let* untouched = bool in
    let* filter = opt (int_range 0 1_000_000) in
    let* note = bool in
    return { objs; roots; gc; ticking; untouched; filter; note })

let print_heap h =
  let word = function
    | Null -> "null"
    | Ref (j, u) -> Printf.sprintf "#%d%s" j (if u then "'" else "")
    | Poisoned j -> Printf.sprintf "#%d*" j
    | Past k -> Printf.sprintf "past+%d" k
  in
  Printf.sprintf
    "gc=%d ticking=%b untouched=%b filter=%s note=%b roots=[%s]\n%s" h.gc
    h.ticking h.untouched
    (match h.filter with Some s -> string_of_int s | None -> "none")
    h.note
    (String.concat ";" (List.map string_of_int h.roots))
    (String.concat "\n"
       (List.mapi
          (fun i o ->
            Printf.sprintf "%d: %s stale=%d scalar=%d [%s]" i
              (if o.live then "live" else "dead")
              o.stale o.scalar
              (String.concat ";" (List.map word o.words)))
          h.objs))

let build_heap h =
  let store = build_store () in
  let roots = Roots.create () in
  let objs =
    Array.of_list
      (List.map
         (fun o ->
           Store.alloc store ~class_id:0 ~n_fields:(List.length o.words)
             ~scalar_bytes:o.scalar ~finalizable:false)
         h.objs)
  in
  List.iteri
    (fun i o -> if not o.live then Store.free store objs.(i))
    h.objs;
  let past = Store.next_fresh_id store in
  List.iteri
    (fun i o ->
      let obj = objs.(i) in
      Heap_obj.set_stale obj o.stale;
      List.iteri
        (fun f w ->
          obj.Heap_obj.fields.(f) <-
            (match w with
            | Null -> Word.null
            | Ref (j, u) ->
              let w = Word.of_id objs.(j).Heap_obj.id in
              if u then Word.set_untouched w else w
            | Poisoned j -> Word.poison (Word.of_id objs.(j).Heap_obj.id)
            | Past k -> Word.of_id (past + k)))
        o.words)
    h.objs;
  List.iter
    (fun i ->
      if (List.nth h.objs i).live then
        Roots.add_static_root roots objs.(i).Heap_obj.id)
    h.roots;
  (store, roots)

let snapshot store =
  List.init (Store.slot_count store) (fun i ->
      let o = Store.find store (i + 1) in
      if o == Store.sentinel then None
      else Some (o.Heap_obj.header, Array.to_list o.Heap_obj.fields))

let run_generated h make =
  let e = make () in
  let store, roots = build_heap h in
  let stats = Gc_stats.create () in
  let stale_tick_gc = if h.ticking then Some h.gc else None in
  let pick seed (edge : Collector.edge) =
    Hashtbl.hash
      ( seed,
        edge.Collector.src.Heap_obj.id,
        edge.Collector.field,
        Heap_obj.stale edge.Collector.tgt )
  in
  let edge_filter =
    Option.map
      (fun seed edge ->
        match pick seed edge mod 4 with
        | 0 -> Collector.Defer
        | 1 -> Collector.Poison
        | _ -> Collector.Trace)
      h.filter
  in
  let edge_note, apply_note, notes =
    let notes = ref [] in
    if h.note then
      ( Some
          (fun (edge : Collector.edge) ->
            if pick 7 edge mod 2 = 0 then
              Some
                ( (edge.Collector.src.Heap_obj.id * 8) + edge.Collector.field,
                  edge.Collector.tgt.Heap_obj.id,
                  Heap_obj.stale edge.Collector.tgt )
            else None),
        Some (fun triple -> notes := triple :: !notes),
        notes )
    else (None, None, notes)
  in
  let poisoned = ref [] in
  let deferred =
    e.Trace_engine.mark ~gc:h.gc ?edge_note ?apply_note store roots ~stats
      ~config:
        {
          Collector.set_untouched_bits = h.untouched;
          stale_tick_gc;
          edge_filter;
          on_poison =
            Some
              (fun (edge : Collector.edge) ->
                poisoned :=
                  (edge.Collector.src.Heap_obj.id, edge.Collector.field)
                  :: !poisoned);
          events = None;
        }
  in
  let edges =
    List.map
      (fun (edge : Collector.edge) ->
        ( edge.Collector.src.Heap_obj.id,
          edge.Collector.field,
          edge.Collector.tgt.Heap_obj.id ))
      deferred
  in
  e.Trace_engine.begin_stale ();
  let bytes =
    List.map
      (e.Trace_engine.stale_closure ~gc:h.gc store ~stats
         ~set_untouched_bits:h.untouched ~stale_tick_gc)
      (Trace_common.canonical_candidates deferred)
  in
  e.Trace_engine.end_stale ~gc:h.gc ~events:None;
  let marked = snapshot store in
  e.Trace_engine.sweep ~gc:h.gc store ~stats;
  let swept = snapshot store in
  let reused = List.init 4 (fun _ -> (alloc store ~n_fields:0).Heap_obj.id) in
  e.Trace_engine.shutdown ();
  ( (edges, bytes, List.rev !poisoned, List.rev !notes),
    (marked, swept, reused, Store.live_bytes store),
    Gc_stats.copy stats )

let prop_generated_heaps =
  QCheck.Test.make
    ~name:"generated heaps: seq, inc1 and inc8 match the reference"
    ~count:300
    (QCheck.make ~print:print_heap gen_heap)
    (fun h ->
      let reference = run_generated h Reference_collector.engine in
      List.for_all
        (fun name -> run_generated h (List.assoc name factories) = reference)
        [ "seq"; "inc1"; "inc8" ])

let suite =
  ( "engines",
    [
      Alcotest.test_case
        "conformance: seq, par2, par2-steal and inc8 agree on closure, sweep, \
         poison and \
         id recycling"
        `Quick test_conformance;
      Alcotest.test_case
        "conformance: a seq->inc->par mid-run schedule matches every fixed \
         engine across 25 seeds"
        `Quick test_engine_switch_conformance;
      Alcotest.test_case "incremental: slice budget bounds every slice" `Quick
        test_inc_slicing_respects_budget;
      QCheck_alcotest.to_alcotest prop_generated_heaps;
    ] )
