(* Collector conformance: the same SELECT-shaped and PRUNE-shaped
   collections, driven through the [engine] record alone, must leave the
   heap in the same state at every slice budget — same claimed bytes,
   same survivors, same poisoned words, same recycled identifiers, same
   counters. The suite instantiates one scenario per engine setting (no
   budget, and 1- and 8-object budgets) and compares the full summaries
   against the reference collector; it also checks the budgeted
   engine's slicing under a tiny budget, retunes one engine's budget
   between collections, and runs the chaos differential oracle against
   the pause-SLO autopilot. *)

open Lp_heap

(* The three phases of one engine setting as closures, so the
   reference collector and every Collector budget run the same
   scenarios. *)
type engine = {
  mark :
    Store.t ->
    Roots.t ->
    stats:Gc_stats.t ->
    config:Collector.mark_config ->
    Collector.edge list;
  stale_closure :
    Store.t ->
    stats:Gc_stats.t ->
    set_untouched_bits:bool ->
    stale_tick_gc:int option ->
    Collector.edge ->
    int;
  marked : Store.t -> int -> bool;  (* between the mark and the sweep *)
  sweep : Store.t -> stats:Gc_stats.t -> int;  (* returns the live bytes *)
}

let of_collector c =
  {
    mark = Collector.mark c;
    stale_closure = (fun store -> Collector.stale_closure c store);
    marked = Store.marked;
    sweep =
      (fun store ~stats ->
        Collector.sweep c store ~stats;
        Store.live_bytes store);
  }

let reference () =
  {
    mark = Reference_collector.mark;
    stale_closure = (fun store -> Reference_collector.stale_closure store);
    marked = (fun _ id -> Reference_collector.marked id);
    sweep = Reference_collector.sweep;
  }

let inc ?slice_budget () = of_collector (Collector.create ?slice_budget ())

(* Every engine setting under test, against the reference collector. *)
let factories =
  [
    ("ref", reference);
    ("seq", fun () -> inc ());
    ("inc1", fun () -> inc ~slice_budget:1 ());
    ("inc8", fun () -> inc ~slice_budget:8 ());
  ]

let build_store () = Store.create ~limit_bytes:1_000_000

let alloc store ~n_fields =
  Store.alloc store ~class_id:0 ~n_fields ~scalar_bytes:0 ~finalizable:false

let link store (src : Heap_obj.t) i (tgt : Heap_obj.t) =
  Store.set_field store (Heap_obj.index src) i (Word.of_id (Heap_obj.index tgt))

let live_ids store =
  let ids = ref [] in
  Store.iter_live store (fun o -> ids := Heap_obj.index o :: !ids);
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
  Roots.add_static_root roots (Heap_obj.index a);
  link store a 0 b;
  link store b 0 c;
  link store a 1 d;
  let defer_b (edge : Collector.edge) =
    if edge.Collector.tgt = Heap_obj.index b then Collector.Defer
    else Collector.Trace
  in
  let deferred =
    e.mark store roots ~stats
      ~config:
        {
          Collector.set_untouched_bits = true;
          stale_tick_gc = Some 1;
          edge_filter = Some defer_b;
          on_poison = None;
          events = None;
        }
  in
  let candidates = Collector.canonical_candidates deferred in
  let claimed =
    List.fold_left
      (fun acc edge ->
        acc
        + e.stale_closure store ~stats ~set_untouched_bits:true
            ~stale_tick_gc:(Some 1) edge)
      0 candidates
  in
  ignore (e.sweep store ~stats);
  let live_after_select = live_ids store in
  let poisoned = ref [] in
  let poison_b (edge : Collector.edge) =
    if edge.Collector.tgt = Heap_obj.index b then Collector.Poison
    else Collector.Trace
  in
  ignore
    (e.mark store roots ~stats
       ~config:
         {
           Collector.set_untouched_bits = false;
           stale_tick_gc = None;
           edge_filter = Some poison_b;
           on_poison =
             Some
               (fun (edge : Collector.edge) ->
                 poisoned :=
                   (edge.Collector.src, edge.Collector.field)
                   :: !poisoned);
           events = None;
         });
  ignore (e.sweep store ~stats);
  let live_after_prune = live_ids store in
  let word_poisoned = Word.poisoned (Store.field store (Heap_obj.index a) 0) in
  let n1 = alloc store ~n_fields:0 in
  let n2 = alloc store ~n_fields:0 in
  ( (List.length candidates, claimed, live_after_select),
    (!poisoned, word_poisoned, live_after_prune),
    (Heap_obj.index n1, Heap_obj.index n2),
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
    (List.tl summaries)

(* A one-object budget must slice a multi-object heap many times, never
   scan more than one object per slice, and still mark every reachable
   object. *)
let test_inc_slicing_respects_budget () =
  let inc = Collector.create ~slice_budget:1 () in
  let e = of_collector inc in
  let store = build_store () in
  let roots = Roots.create () in
  let stats = Gc_stats.create () in
  let root = alloc store ~n_fields:10 in
  Roots.add_static_root roots (Heap_obj.index root);
  for i = 0 to 9 do
    link store root i (alloc store ~n_fields:0)
  done;
  ignore (e.mark store roots ~stats ~config:Collector.base_config);
  ignore (e.sweep store ~stats);
  Alcotest.(check int) "all 11 objects marked" 11 stats.Gc_stats.objects_marked;
  Alcotest.(check int) "max slice work bounded by the budget" 1
    (Collector.max_slice_work inc);
  Alcotest.(check bool) "at least 11 slices ran" true (Collector.slices inc >= 11);
  let pauses = Collector.take_pauses inc in
  let count ph = List.length (List.filter (fun (p, _) -> p = ph) pauses) in
  Alcotest.(check int) "one Mark_slice sample per mark slice"
    (Collector.slices inc)
    (count Trace_engine.Mark_slice);
  Alcotest.(check bool) "the sweep contributed tagged segment samples" true
    (count Trace_engine.Sweep_slice >= 1);
  Alcotest.(check int) "a sliced engine never reports Monolithic" 0
    (count Trace_engine.Monolithic);
  Alcotest.(check int) "take_pauses drains" 0
    (List.length (Collector.take_pauses inc))

(* Changing settings between collections: a schedule that mixes
   settings must behave exactly like any fixed one — the determinism
   contract, exercised across collection boundaries. Each scenario
   builds a seeded random graph, runs three collections, each through
   the engine its schedule step returns, and mutates the surviving
   graph between collections. The full observable state after each
   collection — live ids, object counts, counters — must match the
   reference collector's. Two kinds of schedule: fresh engines per
   collection (seq -> inc8 -> seq, inc8 -> seq -> inc8 and every
   setting run fixed), so no collection state may outlive the
   collection in an engine; and one live engine whose budget is
   retuned between collections with Collector.set_slice_budget, the
   path the pause-SLO autopilot takes. *)
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
      for i = 0 to Store.n_fields store (Heap_obj.index o) - 1 do
        if Random.State.bool rng then link store o i arr.(Random.State.int rng n)
      done)
    arr;
  for _ = 1 to 1 + Random.State.int rng 3 do
    Roots.add_static_root roots (Heap_obj.index arr.(Random.State.int rng n))
  done;
  let mutate () =
    let live = ref [] in
    Store.iter_live store (fun o -> live := o :: !live);
    let live = Array.of_list (List.rev !live) in
    let nl = Array.length live in
    if nl > 0 then begin
      for _ = 1 to 5 do
        let src = live.(Random.State.int rng nl) in
        let nf = Store.n_fields store (Heap_obj.index src) in
        if nf > 0 then
          link store src (Random.State.int rng nf) live.(Random.State.int rng nl)
      done;
      for _ = 1 to 3 do
        let o = alloc store ~n_fields:(Random.State.int rng 3) in
        let keep = Random.State.bool rng in
        let dst = live.(Random.State.int rng nl) in
        let nf = Store.n_fields store (Heap_obj.index dst) in
        if keep && nf > 0 then link store dst (Random.State.int rng nf) o
      done
    end
  in
  List.map
    (fun make ->
      let e = make () in
      ignore
        (e.mark store roots ~stats ~config:Collector.base_config);
      ignore (e.sweep store ~stats);
      mutate ();
      (live_ids store, Store.object_count store, Gc_stats.copy stats))
    schedule

let test_engine_switch_conformance () =
  let seq = List.assoc "seq" factories
  and inc8 = List.assoc "inc8" factories in
  for seed = 1 to 25 do
    let reference =
      run_switch_scenario ~seed
        [ reference; reference; reference ]
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: seq->inc8->seq matches the reference" seed)
      true
      (run_switch_scenario ~seed [ seq; inc8; seq ] = reference);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: inc8->seq->inc8 matches the reference" seed)
      true
      (run_switch_scenario ~seed [ inc8; seq; inc8 ] = reference);
    List.iter
      (fun (name, fixed) ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: all-%s matches the reference" seed name)
          true
          (run_switch_scenario ~seed [ fixed; fixed; fixed ] = reference))
      (List.tl factories)
  done

(* One live engine through a budget schedule. Outcomes cannot show
   whether a retune took effect, so the mark slices run under each
   budget are counted too: a 1-object budget runs one slice per marked
   object, a 128-object budget one per closure. *)
let test_budget_retune_conformance () =
  let at_1 = ref 0 and at_128 = ref 0 in
  for seed = 1 to 25 do
    let reference =
      run_switch_scenario ~seed
        [ reference; reference; reference ]
    in
    List.iter
      (fun budgets ->
        let inc = Collector.create ~slice_budget:(List.hd budgets) () in
        let e = of_collector inc in
        let starts = ref [] in
        let step b () =
          Collector.set_slice_budget inc b;
          starts := (b, Collector.slices inc) :: !starts;
          e
        in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: one engine at budgets %s matches the \
                           reference"
             seed
             (String.concat "->" (List.map string_of_int budgets)))
          true
          (run_switch_scenario ~seed (List.map step budgets) = reference);
        ignore
          (List.fold_left
             (fun stop (b, start) ->
               let n = stop - start in
               if b = 1 then at_1 := !at_1 + n;
               if b = 128 then at_128 := !at_128 + n;
               start)
             (Collector.slices inc) !starts))
      [ [ 8; 1; 128 ]; [ 128; 1; 8 ] ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "budget 1 ran more mark slices (%d) than budget 128 (%d)"
       !at_1 !at_128)
    true
    (!at_1 > !at_128)

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
   decisions). The filter may first note the target's staleness, as
   the liveness audit and the Individual-refs byte accounting do; with
   no seed such a filter notes and traces every edge. Compared: every
   slot's header but its mark and its field words after the stale
   closures and after the sweep, the marked objects and the live bytes,
   the Gc_stats counters, the deferred edges in order, the
   stale closures' bytes, the poisoned edges, the applied notes and the
   ids the next allocations reuse. *)
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
  note : bool;  (* whether the filter notes edges *)
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
      Store.set_stale store (Heap_obj.index obj) o.stale;
      (* a freed object's words are on a free list: only live objects
         get theirs *)
      if o.live then
        List.iteri
          (fun f w ->
            Store.set_field store (Heap_obj.index obj) f
              (match w with
              | Null -> Word.null
              | Ref (j, u) ->
                let w = Word.of_id (Heap_obj.index objs.(j)) in
                if u then Word.set_untouched w else w
              | Poisoned j -> Word.poison (Word.of_id (Heap_obj.index objs.(j)))
              | Past k -> Word.of_id (past + k)))
          o.words)
    h.objs;
  List.iter
    (fun i ->
      if (List.nth h.objs i).live then
        Roots.add_static_root roots (Heap_obj.index objs.(i)))
    h.roots;
  (store, roots)

(* Every slot's header and field words. The header's mark is left out:
   the engines mark in the header, the reference collector in a table
   of its own; [run_generated] compares the marked sets. *)
let snapshot store =
  List.init (Store.slot_count store) (fun i ->
      let o = Store.find store (i + 1) in
      if o == Store.sentinel then None
      else
        Some
          ( Header.with_mark (Store.header store (Heap_obj.index o)) 0,
            List.init (Store.n_fields store (Heap_obj.index o)) (Store.field store (Heap_obj.index o)) ))

let run_generated h make =
  let e = make () in
  let store, roots = build_heap h in
  let stats = Gc_stats.create () in
  let stale_tick_gc = if h.ticking then Some h.gc else None in
  let pick seed (edge : Collector.edge) =
    Hashtbl.hash
      ( seed,
        edge.Collector.src,
        edge.Collector.field,
        Store.stale store edge.Collector.tgt )
  in
  let notes = ref [] in
  let record (edge : Collector.edge) =
    if pick 7 edge mod 2 = 0 then
      notes :=
        ( (edge.Collector.src * 8) + edge.Collector.field,
          edge.Collector.tgt,
          Store.stale store edge.Collector.tgt )
        :: !notes
  in
  let edge_filter =
    match (h.filter, h.note) with
    | None, false -> None
    | seed, note ->
      Some
        (fun edge ->
          if note then record edge;
          match seed with
          | None -> Collector.Trace
          | Some seed -> (
            match pick seed edge mod 4 with
            | 0 -> Collector.Defer
            | 1 -> Collector.Poison
            | _ -> Collector.Trace))
  in
  let poisoned = ref [] in
  let deferred =
    e.mark store roots ~stats
      ~config:
        {
          Collector.set_untouched_bits = h.untouched;
          stale_tick_gc;
          edge_filter;
          on_poison =
            Some
              (fun (edge : Collector.edge) ->
                poisoned :=
                  (edge.Collector.src, edge.Collector.field)
                  :: !poisoned);
          events = None;
        }
  in
  let edges =
    List.map
      (fun (edge : Collector.edge) ->
        ( edge.Collector.src,
          edge.Collector.field,
          edge.Collector.tgt ))
      deferred
  in
  let bytes =
    List.map
      (e.stale_closure store ~stats
         ~set_untouched_bits:h.untouched ~stale_tick_gc)
      (Collector.canonical_candidates deferred)
  in
  let marked =
    ( snapshot store,
      List.init (Store.slot_count store) (fun i -> e.marked store (i + 1)) )
  in
  let live = e.sweep store ~stats in
  let swept = snapshot store in
  let reused = List.init 4 (fun _ -> (Heap_obj.index (alloc store ~n_fields:0))) in
  ( (edges, bytes, List.rev !poisoned, List.rev !notes),
    (marked, swept, reused, live),
    Gc_stats.copy stats )

let prop_generated_heaps =
  QCheck.Test.make
    ~name:"generated heaps: seq, inc1 and inc8 match the reference"
    ~count:300
    (QCheck.make ~print:print_heap gen_heap)
    (fun h ->
      let reference = run_generated h reference in
      List.for_all
        (fun name -> run_generated h (List.assoc name factories) = reference)
        [ "seq"; "inc1"; "inc8" ])

(* Differential determinism oracle: chaos seeds with each collection
   as one pause (seq) and under the pause-SLO autopilot at a 1 ns
   target. The autopilot starts at 256 objects and retunes the budget
   from wall-clock feedback after every collection, so the slice
   boundaries differ from run to run. At 1 ns its nanosecond budget is
   pinned at 100 × target, and the per-object cost it divides by is at
   least 1 ns, so once a mark slice has been timed every budget lies
   between its 32-object floor and 100 objects: each Slo_adjust event
   must say so. The whole report must match seq's: every scalar, the
   outcome and the event trace, in order, once the autopilot's
   wall-clock Slo_adjust events (and the sequence numbers they took)
   are left out. The fixed 1- and 8-object budgets are checked against
   the reference collector above. *)
let differential_seeds = 50

let test_differential_oracle () =
  let deterministic (r : Lp_harness.Chaos.report) =
    {
      r with
      Lp_harness.Chaos.trace =
        List.filter_map
          (fun (e : Lp_obs.Event.stamped) ->
            if Lp_obs.Event.deterministic e.Lp_obs.Event.ev then
              Some { e with Lp_obs.Event.seq = 0 }
            else None)
          r.Lp_harness.Chaos.trace;
    }
  in
  let mismatches = ref [] and retuned = ref 0 and off_cap = ref [] in
  for seed = 1 to differential_seeds do
    let run ?pause_slo_p99_ns () =
      Lp_harness.Chaos.run_one ?pause_slo_p99_ns ~trace_capacity:65_536 ~seed
        ()
    in
    let seq = run () in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: ring complete" seed)
      0 seq.Lp_harness.Chaos.trace_dropped;
    let auto = run ~pause_slo_p99_ns:1 () in
    let budgets =
      List.filter_map
        (fun (e : Lp_obs.Event.stamped) ->
          match e.Lp_obs.Event.ev with
          | Lp_obs.Event.Slo_adjust { budget; _ } -> Some budget
          | _ -> None)
        auto.Lp_harness.Chaos.trace
    in
    if budgets <> [] then incr retuned;
    List.iter
      (fun b -> if b < 32 || b > 100 then off_cap := (seed, b) :: !off_cap)
      budgets;
    if deterministic auto <> deterministic seq then
      mismatches := seed :: !mismatches
  done;
  Alcotest.(check (list int))
    (Printf.sprintf "%d seeds x autopilot at 1 ns: reports identical to seq's"
       differential_seeds)
    [] (List.rev !mismatches);
  (* the autopilot arm sliced at all: some seed emitted Slo_adjust *)
  Alcotest.(check bool) "the autopilot retuned the budget" true (!retuned > 0);
  Alcotest.(check (list (pair int int)))
    "every retuned budget within [32, 100] objects at a 1 ns target" []
    (List.rev !off_cap)

let suite =
  ( "engines",
    [
      Alcotest.test_case
        "conformance: seq, inc1 and inc8 agree with the reference on closure, \
         sweep, poison and id recycling"
        `Quick test_conformance;
      Alcotest.test_case
        "engine switch: seq<->inc8 schedules match every fixed setting"
        `Quick test_engine_switch_conformance;
      Alcotest.test_case "incremental: slice budget bounds every slice" `Quick
        test_inc_slicing_respects_budget;
      QCheck_alcotest.to_alcotest prop_generated_heaps;
      Alcotest.test_case "differential chaos oracle: seq vs the autopilot at 1 ns"
        `Slow test_differential_oracle;
      Alcotest.test_case
        "budget retune: one engine through 8->1->128 matches the reference"
        `Quick test_budget_retune_conformance;
    ] )
