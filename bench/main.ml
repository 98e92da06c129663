(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see lib/harness/experiments.mli) and runs Bechamel
   wall-clock microbenchmarks of the core operations.

   Usage:
     main.exe              run every experiment, then the microbenches
     main.exe fig1 table2  run selected experiments (ids from --list)
     main.exe micro        run only the microbenches
     main.exe resurrection run the resurrection-overhead scenario
                           (writes BENCH_resurrection.json)
     main.exe obs          measure the cost of the disabled observability
                           hooks (writes BENCH_obs_overhead.json)
     main.exe obs-gate     same measurement; exit 1 if overhead > 3%
     main.exe fleet        run the multi-tenant fleet chaos scenario
                           (writes BENCH_fleet.json; exit 1 if any
                           tenant sees a verifier failure or crash)
     main.exe mark-cost    time the in-use mark on three settled heaps
                           (writes BENCH_mark.json)
     main.exe --list       list experiment ids

   Each scenario writes its BENCH_*.json once, in the current directory
   (the repository root under `dune exec`), where the committed copy
   lives. *)

open Bechamel
open Toolkit

(* Writes a scenario's JSON object to [name], with the host's core
   count stamped as its first field, so every BENCH_*.json records the
   host it was measured on. *)
let write_bench name json =
  if String.length json < 2 || String.sub json 0 2 <> "{\n" then
    invalid_arg ("write_bench: " ^ name ^ " is not a JSON object");
  let oc = open_out name in
  Printf.fprintf oc "{\n  \"host_cores\": %d,\n%s"
    (Domain.recommended_domain_count ())
    (String.sub json 2 (String.length json - 2));
  close_out oc

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: one Test.make per table/figure family, measuring
   the operation that dominates that experiment. *)

let barrier_vm () =
  let vm = Lp_runtime.Vm.create ~heap_bytes:1_000_000 () in
  let statics = Lp_runtime.Vm.statics vm ~class_name:"Micro" ~n_fields:2 in
  let obj = Lp_runtime.Vm.alloc vm ~class_name:"Micro$Node" ~n_fields:2 () in
  Lp_runtime.Mutator.write_obj vm statics 0 obj;
  let tgt = Lp_runtime.Vm.alloc vm ~class_name:"Micro$Node" ~n_fields:2 () in
  Lp_runtime.Mutator.write_obj vm obj 0 tgt;
  (vm, obj)

let test_barrier_fast =
  let vm, obj = barrier_vm () in
  Test.make ~name:"fig6/read-barrier-fast-path"
    (Staged.stage (fun () -> ignore (Lp_runtime.Mutator.read vm obj 0)))

(* Sets the untouched bit of [obj]'s field 0 again, as a collection
   would, so the next read of it takes the barrier's cold path. *)
let rearm store (obj : Lp_heap.Heap_obj.t) =
  let id = Lp_heap.Heap_obj.index obj in
  Lp_heap.Store.set_field store id 0
    (Lp_heap.Word.set_untouched (Lp_heap.Store.field store id 0))

let test_barrier_cold =
  let vm, obj = barrier_vm () in
  Test.make ~name:"fig6/read-barrier-cold-path"
    (Staged.stage (fun () ->
         (* re-arm the untouched bit so every read takes the cold path *)
         rearm (Lp_runtime.Vm.store vm) obj;
         ignore (Lp_runtime.Mutator.read vm obj 0)))

let test_alloc =
  let vm = Lp_runtime.Vm.create ~heap_bytes:(512 * 1024 * 1024) () in
  Test.make ~name:"table1/allocation"
    (Staged.stage (fun () ->
         ignore
           (Lp_runtime.Vm.alloc vm ~class_name:"Micro$Alloc" ~scalar_bytes:32
              ~n_fields:2 ())))

(* The same allocation through [alloc_class], with the class resolved
   once: the allocation fast path alone, without the registry lookup
   [Vm.alloc ~class_name] makes on every call. A fresh VM replaces the
   current one every million objects, so memory stays bounded however
   many runs Bechamel asks for; the heap never fills, so no run
   collects. *)
let test_alloc_class =
  let fresh () =
    let vm = Lp_runtime.Vm.create ~heap_bytes:(64 * 1024 * 1024) () in
    (vm, Lp_runtime.Vm.register_class vm "Micro$AllocClass")
  in
  let current = ref (fresh ()) in
  Test.make ~name:"table1/allocation-by-class-id"
    (Staged.stage (fun () ->
         let vm, class_id = !current in
         if Lp_heap.Store.object_count (Lp_runtime.Vm.store vm) >= 1_000_000
         then current := fresh ();
         ignore
           (Lp_runtime.Vm.alloc_class vm ~class_id ~scalar_bytes:32 ~n_fields:2
              ())))

(* A VM holding a 2000-object list to trace. *)
let list_vm ?config () =
  let vm = Lp_runtime.Vm.create ?config ~heap_bytes:4_000_000 () in
  let statics = Lp_runtime.Vm.statics vm ~class_name:"GcMicro" ~n_fields:1 in
  for _i = 1 to 2000 do
    Lp_runtime.Vm.with_frame vm ~n_slots:1 (fun frame ->
        let node =
          Lp_runtime.Vm.alloc vm ~class_name:"GcMicro$Node" ~scalar_bytes:16
            ~n_fields:2 ()
        in
        Lp_heap.Roots.set_slot frame 0 (Lp_heap.Heap_obj.index node);
        (match Lp_runtime.Mutator.read vm statics 0 with
        | Some head -> Lp_runtime.Mutator.write_obj vm node 0 head
        | None -> ());
        Lp_runtime.Mutator.write_obj vm statics 0 node)
  done;
  vm

let test_full_gc =
  let vm = list_vm () in
  Test.make ~name:"fig7/full-heap-collection-2k-objects"
    (Staged.stage (fun () -> Lp_runtime.Vm.run_gc vm))

(* The same heap held in OBSERVE, so every collection ticks every live
   object and sets the untouched bit of every reference it scans (the
   read barrier never clears them here, so the bits stay set and each
   scan takes the already-set path, as in a steady OBSERVE run). *)
let test_full_gc_observe =
  let config =
    Lp_core.Config.make ~force_state:Lp_core.State_kind.Observe ()
  in
  let vm = list_vm ~config () in
  Test.make ~name:"fig7/full-heap-collection-2k-objects-observe"
    (Staged.stage (fun () -> Lp_runtime.Vm.run_gc vm))

let test_edge_table =
  let table = Lp_core.Edge_table.create () in
  let i = ref 0 in
  Test.make ~name:"table2/edge-table-record-stale-use"
    (Staged.stage (fun () ->
         incr i;
         Lp_core.Edge_table.record_stale_use table ~src:(!i mod 97)
           ~tgt:(!i mod 89) ~stale:3))

let test_selection_scan =
  let table = Lp_core.Edge_table.create () in
  for i = 0 to 499 do
    Lp_core.Edge_table.add_bytes table ~src:(i mod 53) ~tgt:(i mod 47) (i * 8)
  done;
  Test.make ~name:"table2/edge-table-selection-scan"
    (Staged.stage (fun () -> ignore (Lp_core.Edge_table.select_max_bytes table)))

let test_compile =
  let methd =
    match
      Lp_jit.Method_gen.generate
        (Lp_jit.Method_gen.profile ~benchmark:"micro" ~n_methods:1 ~seed:7 ())
    with
    | [ m ] -> m
    | [] | _ :: _ -> assert false
  in
  Test.make ~name:"sec5/compile-method-with-barriers"
    (Staged.stage (fun () -> ignore (Lp_jit.Compiler.compile ~barriers:true methd)))

let test_paper_example =
  Test.make ~name:"fig345/worked-example-end-to-end"
    (Staged.stage (fun () -> ignore (Lp_harness.Paper_example.run ())))

let microbenches =
  Test.make_grouped ~name:"leakpruning"
    [
      test_barrier_fast;
      test_barrier_cold;
      test_alloc;
      test_alloc_class;
      test_full_gc;
      test_full_gc_observe;
      test_edge_table;
      test_selection_scan;
      test_compile;
      test_paper_example;
    ]

let run_microbenches () =
  Lp_harness.Render.header "Microbenchmarks"
    "Bechamel wall-clock cost of core operations";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances microbenches in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Printf.sprintf "%.1f" est
        | Some _ | None -> "n/a"
      in
      rows := [ name; ns ] :: !rows)
    results;
  Lp_harness.Render.table
    ~columns:[ "operation"; "ns/run" ]
    ~rows:(List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Resurrection-overhead scenario: a deterministic leak → prune →
   recover loop. Every round grows a linked list the program never
   reads until the controller prunes it, then walks back into the
   pruned structure so the read barrier restores each node from its
   swap image. Counters and simulated-cycle costs are written to
   BENCH_resurrection.json as the baseline for tracking the cost of
   the resurrection subsystem. *)

let resurrection_rounds = 24

let run_resurrection_round () =
  let vm =
    Lp_runtime.Vm.create
      ~config:(Lp_core.Config.make ~policy:Lp_core.Policy.Default ())
      ~resurrection:true ~heap_bytes:10_000 ()
  in
  let statics = Lp_runtime.Vm.statics vm ~class_name:"Bench" ~n_fields:1 in
  let guard = ref 0 in
  while
    (Lp_runtime.Vm.stats vm).Lp_heap.Gc_stats.references_poisoned = 0
    && !guard < 3_000
  do
    incr guard;
    Lp_runtime.Vm.with_frame vm ~n_slots:1 (fun frame ->
        let node =
          Lp_runtime.Vm.alloc vm ~class_name:"Bench$Node" ~scalar_bytes:40
            ~n_fields:1 ()
        in
        Lp_heap.Roots.set_slot frame 0 (Lp_heap.Heap_obj.index node);
        (match Lp_runtime.Mutator.read vm statics 0 with
        | Some head -> Lp_runtime.Mutator.write_obj vm node 0 head
        | None -> ());
        Lp_runtime.Mutator.write_obj vm statics 0 node)
  done;
  let cycles_before = Lp_runtime.Vm.cycles vm in
  (* drain: read through every live poisoned field until none remain,
     resurrecting the chain hop by hop (restores re-poison interior
     edges, so fresh poisoned words appear as the walk proceeds). A
     word whose referent left no image is truly gone — the paper's
     semantics — and its access raises Internal_error; count it and
     skip that word from then on. *)
  let lost = ref 0 in
  let dead_ends = Hashtbl.create 16 in
  let rec drain budget =
    if budget > 0 then begin
      let found = ref None in
      let store = Lp_runtime.Vm.store vm in
      Lp_heap.Store.iter_live store (fun obj ->
          let id = Lp_heap.Heap_obj.index obj in
          for i = 0 to Lp_heap.Store.n_fields store id - 1 do
            let w = Lp_heap.Store.field store id i in
            if
              !found = None
              && (not (Lp_heap.Word.is_null w))
              && Lp_heap.Word.poisoned w
              && not (Hashtbl.mem dead_ends (id, i))
            then found := Some (obj, i)
          done);
      match !found with
      | None -> ()
      | Some (src, field) ->
        (try ignore (Lp_runtime.Mutator.read vm src field)
         with Lp_core.Errors.Internal_error _ ->
           incr lost;
           Hashtbl.add dead_ends (Lp_heap.Heap_obj.index src, field) ());
        drain (budget - 1)
    end
  in
  drain 500;
  (vm, Lp_runtime.Vm.cycles vm - cycles_before, !lost)

let run_resurrection_bench () =
  Lp_harness.Render.header "Resurrection overhead"
    "deterministic leak/prune/recover rounds; baseline in \
     BENCH_resurrection.json";
  let t0 = Sys.time () in
  let resurrections = ref 0
  and failures = ref 0
  and repoisoned = ref 0
  and poisoned = ref 0
  and image_writes = ref 0
  and image_drops = ref 0
  and collections = ref 0
  and recover_cycles = ref 0
  and total_cycles = ref 0
  and gc_cycles = ref 0
  and safe_entries = ref 0
  and mispredictions = ref 0
  and unrecoverable = ref 0 in
  for _round = 1 to resurrection_rounds do
    let vm, rc, lost = run_resurrection_round () in
    let st = Lp_runtime.Vm.stats vm in
    let swap = Lp_runtime.Vm.swap vm in
    let ctl = Lp_runtime.Vm.controller vm in
    resurrections := !resurrections + st.Lp_heap.Gc_stats.resurrections;
    failures := !failures + st.Lp_heap.Gc_stats.resurrection_failures;
    repoisoned := !repoisoned + st.Lp_heap.Gc_stats.words_repoisoned;
    poisoned := !poisoned + st.Lp_heap.Gc_stats.references_poisoned;
    image_writes := !image_writes + Lp_runtime.Diskswap.image_writes swap;
    image_drops := !image_drops + Lp_runtime.Diskswap.image_drops swap;
    collections := !collections + st.Lp_heap.Gc_stats.collections;
    recover_cycles := !recover_cycles + rc;
    total_cycles := !total_cycles + Lp_runtime.Vm.cycles vm;
    gc_cycles := !gc_cycles + Lp_runtime.Vm.gc_cycles vm;
    safe_entries := !safe_entries + Lp_core.Controller.safe_entries ctl;
    mispredictions := !mispredictions + Lp_core.Controller.mispredictions ctl;
    unrecoverable := !unrecoverable + lost
  done;
  let cpu_s = Sys.time () -. t0 in
  let per_res v =
    if !resurrections = 0 then 0.0
    else float_of_int v /. float_of_int !resurrections
  in
  let cycles_per_resurrection = per_res !recover_cycles in
  let json =
    Printf.sprintf
      {|{
  "benchmark": "resurrection",
  "rounds": %d,
  "collections": %d,
  "references_poisoned": %d,
  "resurrections": %d,
  "resurrection_failures": %d,
  "words_repoisoned": %d,
  "unrecoverable_accesses": %d,
  "image_writes": %d,
  "image_drops": %d,
  "mispredictions": %d,
  "safe_entries": %d,
  "cycles_total": %d,
  "cycles_gc": %d,
  "cycles_recovery": %d,
  "cycles_per_resurrection": %.1f,
  "cpu_seconds": %.3f
}
|}
      resurrection_rounds !collections !poisoned !resurrections !failures
      !repoisoned !unrecoverable !image_writes !image_drops !mispredictions
      !safe_entries
      !total_cycles !gc_cycles !recover_cycles cycles_per_resurrection cpu_s
  in
  write_bench "BENCH_resurrection.json" json;
  Lp_harness.Render.table
    ~columns:[ "metric"; "value" ]
    ~rows:
      [
        [ "rounds"; string_of_int resurrection_rounds ];
        [ "references poisoned"; string_of_int !poisoned ];
        [ "resurrections"; string_of_int !resurrections ];
        [ "resurrection failures"; string_of_int !failures ];
        [ "words re-poisoned at restore"; string_of_int !repoisoned ];
        [ "unrecoverable accesses"; string_of_int !unrecoverable ];
        [ "swap-image writes"; string_of_int !image_writes ];
        [ "mispredictions reported"; string_of_int !mispredictions ];
        [ "SAFE-mode entries"; string_of_int !safe_entries ];
        [ "recovery cycles / resurrection";
          Printf.sprintf "%.1f" cycles_per_resurrection ];
      ];
  print_endline "wrote BENCH_resurrection.json"

(* ------------------------------------------------------------------ *)
(* Disabled-observability overhead: DESIGN.md budgets the event hooks at
   ≤ 3% on the barrier paths when no sink is attached.  [baseline_read]
   replicates the pre-observability Mutator.read from public APIs only —
   the same charges, the same word tests, the same lookups
   ([Vm.assert_live] and [Store.find] against [Store.sentinel]), the
   same cold-path bookkeeping, minus the [match Vm.sink vm with None ->
   ()] guards — and both
   variants run the identical read loop.  Medians over interleaved
   samples keep one scheduling hiccup from deciding the comparison. *)

let baseline_charge_barrier vm n =
  if Lp_runtime.Vm.charge_barriers vm then Lp_runtime.Vm.charge vm n

let[@inline never] baseline_swap_in vm (src : Lp_heap.Heap_obj.t)
    (tgt : Lp_heap.Heap_obj.t) =
  let open Lp_heap in
  let open Lp_runtime in
  let cost = Vm.cost vm in
  let store = Vm.store vm in
  let class_name (obj : Heap_obj.t) =
    Class_registry.name (Vm.registry vm) (Store.class_of store (Heap_obj.index obj))
  in
  match Diskswap.retrieve (Vm.swap vm) store tgt with
  | `Not_resident -> ()
  | `Swapped_in -> Vm.charge vm cost.Cost.disk_swap_in
  | `Corrupt reason ->
    Vm.charge vm cost.Cost.disk_swap_in;
    raise
      (Lp_core.Errors.internal_error
         ~cause:
           (Lp_core.Errors.resurrection_failed ~target:(Heap_obj.index tgt) ~reason
              ~gc_count:(Vm.gc_count vm))
         ~src_class:(class_name src) ~tgt_class:(class_name tgt))

(* Full replica, error branches included: truncating them to stubs makes
   the baseline a much smaller function than the real barrier ever was
   and skews code layout in its favour. *)
let baseline_read vm (src : Lp_heap.Heap_obj.t) i =
  let open Lp_heap in
  let open Lp_runtime in
  Vm.assert_live vm src;
  let cost = Vm.cost vm in
  Vm.charge vm cost.Cost.read_ref;
  baseline_charge_barrier vm cost.Cost.barrier_fast;
  let w = Store.field (Vm.store vm) (Heap_obj.index src) i in
  if Word.is_null w then None
  else if Word.poisoned w then begin
    baseline_charge_barrier vm
      (cost.Cost.barrier_cold + cost.Cost.barrier_poison_check);
    let store = Vm.store vm in
    let tgt_class () =
      let id = Word.target w in
      if Store.mem store id then
        Class_registry.name (Vm.registry vm) (Store.class_of store id)
      else "<reclaimed>"
    in
    if not (Vm.resurrection_enabled vm) then
      raise
        (Lp_core.Controller.poisoned_access_error (Vm.controller vm) store ~src
           ~tgt_class:(tgt_class ()))
    else begin
      match Vm.try_resurrect vm src ~field:i with
      | Ok tgt ->
        Store.set_stale store (Heap_obj.index tgt) 0;
        Some tgt
      | Error reason ->
        let stats = Vm.stats vm in
        stats.Gc_stats.resurrection_failures <-
          stats.Gc_stats.resurrection_failures + 1;
        raise
          (Lp_core.Errors.internal_error
             ~cause:
               (Lp_core.Errors.resurrection_failed ~target:(Word.target w)
                  ~reason ~gc_count:(Vm.gc_count vm))
             ~src_class:
               (Class_registry.name (Vm.registry vm)
                  (Store.class_of store (Heap_obj.index src)))
             ~tgt_class:(tgt_class ()))
    end
  end
  else begin
    let store = Vm.store vm in
    let tgt = Store.find store (Word.target w) in
    if tgt == Store.sentinel then begin
      Store.set_field store (Heap_obj.index src) i (Word.poison w);
      let stats = Vm.stats vm in
      stats.Gc_stats.words_quarantined <- stats.Gc_stats.words_quarantined + 1;
      raise
        (Lp_core.Errors.heap_corruption
           ~src_class:
             (Class_registry.name (Vm.registry vm)
                (Store.class_of store (Heap_obj.index src)))
           ~field:i ~target:(Word.target w) ~gc_count:(Vm.gc_count vm))
    end;
    if Word.untouched w then begin
      baseline_charge_barrier vm cost.Cost.barrier_cold;
      Store.set_field store (Heap_obj.index src) i (Word.clear_untouched w);
      Lp_core.Controller.on_stale_use (Vm.controller vm) store ~src ~tgt;
      Lp_core.Controller.note_field_read (Vm.controller vm) store ~src
        ~field:i;
      Store.set_stale store (Heap_obj.index tgt) 0
    end;
    if Vm.offloading vm && Header.on_disk (Store.header store (Heap_obj.index tgt))
    then baseline_swap_in vm src tgt;
    Some tgt
  end

let obs_pairs = 201
let obs_reads_per_sample = 500_000

(* One cold read per this many reads in the mixed stream the budget is
   gated on.  A reference goes cold once per collection and is then
   fast until the next one; real workloads re-read references far more
   than 16 times per GC, so 1/16 overstates the cold fraction. *)
let obs_cold_period = 16

(* wall-clock seconds for [obs_reads_per_sample] calls of [read];
   [mask] selects the cold duty cycle: -1 never re-arms the untouched
   bit (pure fast path), 0 re-arms before every read (pure cold path),
   [n-1] with n a power of two re-arms every n-th read *)
let time_sample ~mask ~store obj read =
  let k = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to obs_reads_per_sample do
    incr k;
    if !k land mask = 0 then rearm store obj;
    ignore (read ())
  done;
  Unix.gettimeofday () -. t0

(* Paired design: each round times baseline and instrumented
   back-to-back (order alternating) on each of the three streams in
   turn, so frequency drift and scheduler interference hit both sides
   of every difference, and a round's streams are timed at the same
   moment.  Returns, per stream, the round-by-round baseline and
   instrumented times. *)
let time_rounds ~masks ~store obj baseline instrumented =
  let n = Array.length masks in
  let base = Array.make_matrix n obs_pairs 0.0 in
  let inst = Array.make_matrix n obs_pairs 0.0 in
  for round = 0 to obs_pairs - 1 do
    Array.iteri
      (fun s mask ->
        if round land 1 = 0 then begin
          base.(s).(round) <- time_sample ~mask ~store obj baseline;
          inst.(s).(round) <- time_sample ~mask ~store obj instrumented
        end
        else begin
          inst.(s).(round) <- time_sample ~mask ~store obj instrumented;
          base.(s).(round) <- time_sample ~mask ~store obj baseline
        end)
      masks
  done;
  (base, inst)

let fastest xs = Array.fold_left min infinity xs

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let ns_per_read s = s *. 1e9 /. float_of_int obs_reads_per_sample

let run_obs_overhead_bench ~gate () =
  Lp_harness.Render.header "Disabled-observability overhead"
    "Mutator.read with sink = None vs a replica of the pre-observability \
     barrier; budget 3%";
  let vm, obj = barrier_vm () in
  let store = Lp_runtime.Vm.store vm in
  assert (Lp_runtime.Vm.sink vm = None);
  let instrumented () = Lp_runtime.Mutator.read vm obj 0 in
  let baseline () = baseline_read vm obj 0 in
  (* warm up both paths so neither variant pays first-touch costs *)
  ignore (time_sample ~mask:(-1) ~store obj baseline);
  ignore (time_sample ~mask:(-1) ~store obj instrumented);
  ignore (time_sample ~mask:0 ~store obj baseline);
  ignore (time_sample ~mask:0 ~store obj instrumented);
  let base, inst =
    time_rounds ~masks:[| -1; 0; obs_cold_period - 1 |] ~store obj baseline
      instrumented
  in
  let fast = 0 and cold = 1 and mixed = 2 in
  let deltas s = Array.map2 ( -. ) inst.(s) base.(s) in
  let fb = fastest base.(fast) and fi = fastest inst.(fast) in
  let cb = fastest base.(cold) and ci = fastest inst.(cold) in
  let mb = fastest base.(mixed) and mi = fastest inst.(mixed) in
  let fast_pct = median (deltas fast) /. fb *. 100.0 in
  let cold_pct = median (deltas cold) /. cb *. 100.0 in
  (* The two fast paths are compiled from identical source, so their
     paired delta is pure bias — code placement of two distinct
     functions plus harness dispatch — worth several percent either way
     at this granularity.  Subtracting each round's fast delta from the
     same round's other deltas isolates the sink guard, the only
     source-level difference; the median is taken over those per-round
     differences, so the bias and the delta it corrects are measured
     at the same moment.  The budget gates the guard's cost on the
     mixed stream, whose 1/16 cold duty cycle already overstates how
     often real workloads take the cold path; the pure-cold
     differential is reported as a diagnostic. *)
  let unbiased s = median (Array.map2 ( -. ) (deltas s) (deltas fast)) in
  let guard_ns = ns_per_read (unbiased cold) in
  let guard_cold_pct = Float.max 0.0 (guard_ns /. ns_per_read cb *. 100.0) in
  let mixed_pct = Float.max 0.0 (unbiased mixed /. mb *. 100.0) in
  let budget = 3.0 in
  let pass = mixed_pct <= budget in
  let json =
    Printf.sprintf
      {|{
  "benchmark": "obs_disabled_overhead",
  "reads_per_sample": %d,
  "pairs": %d,
  "cold_period": %d,
  "fast_ns_baseline": %.2f,
  "fast_ns_instrumented": %.2f,
  "fast_delta_pct": %.2f,
  "cold_ns_baseline": %.2f,
  "cold_ns_instrumented": %.2f,
  "cold_delta_pct": %.2f,
  "mixed_ns_baseline": %.2f,
  "mixed_ns_instrumented": %.2f,
  "guard_ns": %.2f,
  "guard_cold_path_pct": %.2f,
  "mixed_overhead_pct": %.2f,
  "budget_pct": %.1f,
  "pass": %b
}
|}
      obs_reads_per_sample obs_pairs obs_cold_period (ns_per_read fb)
      (ns_per_read fi) fast_pct (ns_per_read cb) (ns_per_read ci) cold_pct
      (ns_per_read mb) (ns_per_read mi) guard_ns guard_cold_pct mixed_pct
      budget pass
  in
  write_bench "BENCH_obs_overhead.json" json;
  Lp_harness.Render.table
    ~columns:[ "path"; "baseline ns/read"; "instrumented ns/read"; "overhead" ]
    ~rows:
      [
        [ "fast (clean ref)";
          Printf.sprintf "%.2f" (ns_per_read fb);
          Printf.sprintf "%.2f" (ns_per_read fi);
          Printf.sprintf "%+.2f%%" fast_pct ];
        [ "cold (untouched ref)";
          Printf.sprintf "%.2f" (ns_per_read cb);
          Printf.sprintf "%.2f" (ns_per_read ci);
          Printf.sprintf "%+.2f%%" cold_pct ];
        [ Printf.sprintf "mixed (1 cold per %d)" obs_cold_period;
          Printf.sprintf "%.2f" (ns_per_read mb);
          Printf.sprintf "%.2f" (ns_per_read mi);
          Printf.sprintf "%.2f%%" mixed_pct ];
      ];
  Printf.printf
    "sink guard: %+.2f ns per cold read (%.2f%% of the cold path); mixed-stream \
     overhead %.2f%% (budget %.1f%%)\n"
    guard_ns guard_cold_pct mixed_pct budget;
  print_endline "wrote BENCH_obs_overhead.json";
  if gate then
    if pass then
      Printf.printf "obs-gate: PASS (%.2f%% <= %.1f%%)\n" mixed_pct budget
    else begin
      Printf.eprintf
        "obs-gate: FAIL — disabled-observability overhead on the mixed read \
         stream is %.2f%%, over the %.1f%% budget (fast delta %+.2f%%, cold \
         delta %+.2f%%, guard %+.2f ns)\n"
        mixed_pct budget fast_pct cold_pct guard_ns;
      exit 1
    end

(* ------------------------------------------------------------------ *)
(* Fleet scenario: a small multi-tenant fleet under chaos — one tenant
   pinned SAFE, seeded kills and disk-pressure windows — reporting
   per-tenant and aggregate throughput, pause percentiles, restart
   counts and shed rate.  The gate is the fleet's isolation contract:
   zero verifier failures and zero crashes across every tenant, or the
   bench exits 1. *)

let run_fleet_bench () =
  let seed = 11 and rounds = 80 and tenants = 4 in
  let specs =
    List.init tenants (fun id ->
        {
          Lp_fleet.Tenant.id;
          name = Printf.sprintf "tenant-%d" id;
          workload = Lp_workloads.List_leak.workload;
          heap_bytes = 20_000;
          quota_bytes = 20_000;
          rate_per_mille = 2_000;
          policy = Lp_core.Policy.Default;
          force_safe = id = 1;
          resurrection = true;
          liveness = Lp_core.Config.Liveness_off;
          pause_slo_p99_ns = None;
    gc_packet_size = None;
        })
  in
  let options =
    { (Lp_fleet.Fleet.default_options ~seed ~rounds ()) with
      Lp_fleet.Fleet.chaos = true;
      chaos_events = 4
    }
  in
  let t0 = Sys.time () in
  let report = Lp_fleet.Fleet.run options specs in
  let cpu_s = Sys.time () -. t0 in
  let shed (t : Lp_fleet.Fleet.tenant_report) =
    t.Lp_fleet.Fleet.shed_queue + t.Lp_fleet.Fleet.shed_deadline
    + t.Lp_fleet.Fleet.shed_retries + t.Lp_fleet.Fleet.shed_retired
  in
  let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  let tenant_json (t : Lp_fleet.Fleet.tenant_report) =
    let timing =
      List.find
        (fun (ti : Lp_fleet.Fleet.timing) ->
          ti.Lp_fleet.Fleet.t_tenant = t.Lp_fleet.Fleet.tenant)
        report.Lp_fleet.Fleet.timings
    in
    Printf.sprintf
      {|    {
      "tenant": %d,
      "arrived": %d,
      "served": %d,
      "throughput_per_round": %.3f,
      "shed": %d,
      "shed_rate": %.4f,
      "restarts": %d,
      "kills": %d,
      "crashes": %d,
      "bytes_reclaimed": %d,
      "references_poisoned": %d,
      "verifier_checks": %d,
      "verifier_failures": %d,
      "admission_denials": %d,
      "pause_count": %d,
      "pause_p50_ns": %d,
      "pause_p99_ns": %d,
      "pause_max_ns": %d
    }|}
      t.Lp_fleet.Fleet.tenant t.Lp_fleet.Fleet.arrived t.Lp_fleet.Fleet.served
      (rate t.Lp_fleet.Fleet.served rounds)
      (shed t)
      (rate (shed t) t.Lp_fleet.Fleet.arrived)
      t.Lp_fleet.Fleet.restarts t.Lp_fleet.Fleet.kills t.Lp_fleet.Fleet.crashes
      t.Lp_fleet.Fleet.bytes_reclaimed t.Lp_fleet.Fleet.references_poisoned
      t.Lp_fleet.Fleet.verifier_checks t.Lp_fleet.Fleet.verifier_failures
      t.Lp_fleet.Fleet.admission_denials timing.Lp_fleet.Fleet.pause_count
      timing.Lp_fleet.Fleet.pause_p50_ns timing.Lp_fleet.Fleet.pause_p99_ns
      timing.Lp_fleet.Fleet.pause_max_ns
  in
  let sum f =
    List.fold_left (fun acc t -> acc + f t) 0 report.Lp_fleet.Fleet.tenant_reports
  in
  let arrived = sum (fun t -> t.Lp_fleet.Fleet.arrived) in
  let served = sum (fun t -> t.Lp_fleet.Fleet.served) in
  let shed_total = sum shed in
  let restarts = sum (fun t -> t.Lp_fleet.Fleet.restarts) in
  let verifier_failures = sum (fun t -> t.Lp_fleet.Fleet.verifier_failures) in
  let crashes = sum (fun t -> t.Lp_fleet.Fleet.crashes) in
  let json =
    Printf.sprintf
      {|{
  "benchmark": "fleet",
  "seed": %d,
  "rounds": %d,
  "tenants": %d,
  "chaos": true,
  "faults_fired": %d,
  "per_tenant": [
%s
  ],
  "aggregate": {
    "arrived": %d,
    "served": %d,
    "throughput_per_round": %.3f,
    "shed": %d,
    "shed_rate": %.4f,
    "restarts": %d,
    "verifier_failures": %d,
    "crashes": %d,
    "backend_used_bytes": %d,
    "backend_denials": %d
  },
  "cpu_seconds": %.3f
}
|}
      seed rounds tenants report.Lp_fleet.Fleet.faults_fired
      (String.concat ",\n"
         (List.map tenant_json report.Lp_fleet.Fleet.tenant_reports))
      arrived served (rate served rounds) shed_total (rate shed_total arrived)
      restarts verifier_failures crashes
      report.Lp_fleet.Fleet.backend_used_bytes
      report.Lp_fleet.Fleet.backend_denials cpu_s
  in
  write_bench "BENCH_fleet.json" json;
  Lp_harness.Render.table
    ~columns:[ "metric"; "value" ]
    ~rows:
      [
        [ "tenants"; string_of_int tenants ];
        [ "rounds"; string_of_int rounds ];
        [ "faults fired"; string_of_int report.Lp_fleet.Fleet.faults_fired ];
        [ "requests served"; string_of_int served ];
        [ "aggregate throughput/round"; Printf.sprintf "%.3f" (rate served rounds) ];
        [ "shed rate"; Printf.sprintf "%.4f" (rate shed_total arrived) ];
        [ "tenant restarts"; string_of_int restarts ];
        [ "verifier failures"; string_of_int verifier_failures ];
        [ "crashes"; string_of_int crashes ];
      ];
  print_endline "wrote BENCH_fleet.json";
  if verifier_failures > 0 || crashes > 0 then begin
    Printf.eprintf
      "FLEET GATE FAILED: %d verifier failure(s), %d crash(es) — isolation \
       contract broken\n"
      verifier_failures crashes;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Restart scenario: warm (checkpoint-restoring) versus cold restarts,
   25 seeds.  One PhasedCache tenant is killed at mid-run; the warm
   fleet restores the controller brain from its last checkpoint, the
   cold baseline (warm_limit = 0) relearns from scratch.  The
   oracle: both runs clean, the warm restart actually takes the warm
   path and reaches readiness, and the warm run ends with *strictly*
   fewer mispredictions than the cold one — the learning burst is paid
   once, not twice.  Any violation exits 1. *)

let run_restart_bench () =
  let seeds = 25 and rounds = 60 and kill_round = 30 in
  let spec =
    {
      Lp_fleet.Tenant.id = 0;
      name = "tenant-0";
      workload = Lp_workloads.Phased_cache.workload;
      heap_bytes = 14_000;
      quota_bytes = 14_000;
      rate_per_mille = 2_200;
      policy = Lp_core.Policy.Default;
      force_safe = false;
      resurrection = true;
      liveness = Lp_core.Config.Liveness_off;
      pause_slo_p99_ns = None;
    gc_packet_size = None;
    }
  in
  (* trip bar 1000 permille: the breaker (strict inequality) can never
     trip on a 1-tenant fleet, so time-to-ready measures quarantine plus
     the readiness probe, not a storm cooldown *)
  let run ~warm seed =
    let d = Lp_fleet.Fleet.default_options ~seed ~rounds () in
    let options =
      { d with
        Lp_fleet.Fleet.requests_per_round = 2;
        warm_limit = (if warm then d.warm_limit else 0);
        storm_trip_permille = 1000;
        kills = [ (kill_round, 0) ]
      }
    in
    let t0 = Unix.gettimeofday () in
    let report = Lp_fleet.Fleet.run options [ spec ] in
    let wall_s = Unix.gettimeofday () -. t0 in
    (report, List.hd report.Lp_fleet.Fleet.tenant_reports, wall_s)
  in
  let ready_round (report : Lp_fleet.Fleet.report) =
    List.fold_left
      (fun acc (s : Lp_obs.Event.stamped) ->
        match s.Lp_obs.Event.ev with
        | Lp_obs.Event.Tenant_ready { round; _ }
          when round > kill_round && acc = None ->
          Some round
        | _ -> acc)
      None report.Lp_fleet.Fleet.events
  in
  let violations = ref [] in
  let violate seed fmt =
    Printf.ksprintf
      (fun msg -> violations := Printf.sprintf "seed %d: %s" seed msg :: !violations)
      fmt
  in
  let rows = ref [] in
  for seed = 1 to seeds do
    let warm_report, w, warm_wall = run ~warm:true seed in
    let cold_report, c, cold_wall = run ~warm:false seed in
    if Lp_fleet.Fleet.failed warm_report then
      violate seed "warm run failed (verifier failure or crash)";
    if Lp_fleet.Fleet.failed cold_report then
      violate seed "cold run failed (verifier failure or crash)";
    if w.Lp_fleet.Fleet.warm_restarts < 1 then
      violate seed "no warm restart happened (warm=%d cold=%d fallbacks=%d)"
        w.Lp_fleet.Fleet.warm_restarts w.Lp_fleet.Fleet.cold_restarts
        w.Lp_fleet.Fleet.checkpoint_fallbacks;
    let warm_ready = ready_round warm_report in
    let cold_ready = ready_round cold_report in
    if warm_ready = None then violate seed "warm tenant never became ready";
    if cold_ready = None then violate seed "cold tenant never became ready";
    if w.Lp_fleet.Fleet.mispredictions >= c.Lp_fleet.Fleet.mispredictions then
      violate seed
        "warm mispredictions %d not strictly below cold %d — the restored \
         brain bought nothing"
        w.Lp_fleet.Fleet.mispredictions c.Lp_fleet.Fleet.mispredictions;
    let ttr = function Some r -> r - kill_round | None -> -1 in
    rows :=
      ( seed,
        w.Lp_fleet.Fleet.mispredictions,
        c.Lp_fleet.Fleet.mispredictions,
        ttr warm_ready,
        ttr cold_ready,
        warm_wall,
        cold_wall )
      :: !rows
  done;
  let rows = List.rev !rows in
  let mean f =
    List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. float_of_int seeds
  in
  let mean_warm_mis = mean (fun (_, w, _, _, _, _, _) -> float_of_int w) in
  let mean_cold_mis = mean (fun (_, _, c, _, _, _, _) -> float_of_int c) in
  let mean_warm_ttr = mean (fun (_, _, _, t, _, _, _) -> float_of_int t) in
  let mean_cold_ttr = mean (fun (_, _, _, _, t, _, _) -> float_of_int t) in
  let mean_warm_wall = mean (fun (_, _, _, _, _, ws, _) -> ws) in
  let mean_cold_wall = mean (fun (_, _, _, _, _, _, cs) -> cs) in
  let seed_json (seed, wm, cm, wt, ct, ws, cs) =
    Printf.sprintf
      {|    { "seed": %d, "warm_mispredictions": %d, "cold_mispredictions": %d, "warm_rounds_to_ready": %d, "cold_rounds_to_ready": %d, "warm_wall_s": %.6f, "cold_wall_s": %.6f }|}
      seed wm cm wt ct ws cs
  in
  let json =
    Printf.sprintf
      {|{
  "benchmark": "restart",
  "workload": "PhasedCache",
  "seeds": %d,
  "rounds": %d,
  "kill_round": %d,
  "per_seed": [
%s
  ],
  "aggregate": {
    "mean_warm_mispredictions": %.2f,
    "mean_cold_mispredictions": %.2f,
    "mean_warm_rounds_to_ready": %.2f,
    "mean_cold_rounds_to_ready": %.2f,
    "mean_warm_wall_s": %.6f,
    "mean_cold_wall_s": %.6f
  },
  "violations": [%s]
}
|}
      seeds rounds kill_round
      (String.concat ",\n" (List.map seed_json rows))
      mean_warm_mis mean_cold_mis mean_warm_ttr mean_cold_ttr mean_warm_wall
      mean_cold_wall
      (String.concat ", "
         (List.map (fun v -> Printf.sprintf "%S" v) (List.rev !violations)))
  in
  write_bench "BENCH_restart.json" json;
  Lp_harness.Render.table
    ~columns:[ "metric"; "warm"; "cold" ]
    ~rows:
      [
        [
          "mean mispredictions";
          Printf.sprintf "%.2f" mean_warm_mis;
          Printf.sprintf "%.2f" mean_cold_mis;
        ];
        [
          "mean rounds to ready";
          Printf.sprintf "%.2f" mean_warm_ttr;
          Printf.sprintf "%.2f" mean_cold_ttr;
        ];
        [
          "mean run wall (s)";
          Printf.sprintf "%.4f" mean_warm_wall;
          Printf.sprintf "%.4f" mean_cold_wall;
        ];
      ];
  print_endline "wrote BENCH_restart.json";
  if !violations <> [] then begin
    Printf.eprintf "RESTART GATE FAILED (%d violation(s)):\n"
      (List.length !violations);
    List.iter (Printf.eprintf "  %s\n") (List.rev !violations);
    exit 1
  end

(* Static-liveness scenario: dynamic-only SELECT versus the
   access-graph oracle composed with staleness, across the four
   bytecode-modelled workloads and 25 deterministic iteration-cap
   variants each (caps stand in for seeds: the workloads are
   deterministic, so varying the cap varies how much of the phase
   schedule — and so how many prune decisions — each run sees).  Every
   run enables resurrection so a misprediction is a recovered, counted
   event rather than a fatal stop.  The oracle: guided runs are
   deterministic (each is executed twice and must agree), guided never
   mispredicts MORE than dynamic-only on any variant, and on at least
   one PhasedCache or AdaptonHull variant it mispredicts strictly
   less — those two workloads were built to make dynamic-only SELECT
   choose a stale-but-live structure.  Any violation exits 1. *)

let run_liveness_bench () =
  let variants = 25 in
  let cap seed = 200 + (40 * seed) in
  let bench_workloads =
    [
      Lp_workloads.List_leak.workload;
      Lp_workloads.Swap_leak.workload;
      Lp_workloads.Phased_cache.workload;
      Lp_workloads.Adapton_hull.workload;
    ]
  in
  let run mode w n =
    Lp_harness.Driver.run ~liveness:mode ~resurrection:true ~max_iterations:n w
  in
  let key (r : Lp_harness.Driver.result) =
    ( r.Lp_harness.Driver.iterations,
      r.Lp_harness.Driver.gc_count,
      r.Lp_harness.Driver.mispredictions,
      r.Lp_harness.Driver.references_poisoned,
      r.Lp_harness.Driver.bytes_reclaimed,
      r.Lp_harness.Driver.liveness_vetoes,
      r.Lp_harness.Driver.liveness_boosts )
  in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun msg -> violations := msg :: !violations) fmt
  in
  let rows = ref [] in
  List.iter
    (fun w ->
      let name = w.Lp_workloads.Workload.name in
      let improved = ref false in
      for seed = 1 to variants do
        let n = cap seed in
        let off = run Lp_core.Config.Liveness_off w n in
        let guide = run Lp_core.Config.Liveness_guide w n in
        let guide' = run Lp_core.Config.Liveness_guide w n in
        if key guide <> key guide' then
          violate "%s cap %d: guided run is not deterministic" name n;
        let om = off.Lp_harness.Driver.mispredictions in
        let gm = guide.Lp_harness.Driver.mispredictions in
        if gm > om then
          violate "%s cap %d: guided mispredicted %d > dynamic-only %d" name n
            gm om;
        if gm < om then improved := true;
        rows :=
          ( name,
            n,
            om,
            gm,
            off.Lp_harness.Driver.iterations,
            guide.Lp_harness.Driver.iterations,
            guide.Lp_harness.Driver.liveness_vetoes,
            guide.Lp_harness.Driver.liveness_boosts )
          :: !rows
      done;
      if
        (name = "PhasedCache" || name = "AdaptonHull") && not !improved
      then
        violate
          "%s: guided never strictly beat dynamic-only on any variant" name)
    bench_workloads;
  let rows = List.rev !rows in
  let per_workload name =
    List.filter (fun (n, _, _, _, _, _, _, _) -> n = name) rows
  in
  let sum f l = List.fold_left (fun acc r -> acc + f r) 0 l in
  let row_json (name, n, om, gm, oi, gi, vetoes, boosts) =
    Printf.sprintf
      {|    { "workload": "%s", "cap": %d, "off_mispredictions": %d, "guide_mispredictions": %d, "off_iterations": %d, "guide_iterations": %d, "guide_vetoes": %d, "guide_boosts": %d }|}
      name n om gm oi gi vetoes boosts
  in
  let agg_json w =
    let name = w.Lp_workloads.Workload.name in
    let l = per_workload name in
    Printf.sprintf
      {|    { "workload": "%s", "off_mispredictions": %d, "guide_mispredictions": %d, "guide_vetoes": %d, "guide_boosts": %d }|}
      name
      (sum (fun (_, _, om, _, _, _, _, _) -> om) l)
      (sum (fun (_, _, _, gm, _, _, _, _) -> gm) l)
      (sum (fun (_, _, _, _, _, _, v, _) -> v) l)
      (sum (fun (_, _, _, _, _, _, _, b) -> b) l)
  in
  let json =
    Printf.sprintf
      {|{
  "benchmark": "liveness",
  "variants_per_workload": %d,
  "per_variant": [
%s
  ],
  "per_workload": [
%s
  ],
  "violations": [%s]
}
|}
      variants
      (String.concat ",\n" (List.map row_json rows))
      (String.concat ",\n" (List.map agg_json bench_workloads))
      (String.concat ", "
         (List.map (fun v -> Printf.sprintf "%S" v) (List.rev !violations)))
  in
  write_bench "BENCH_liveness.json" json;
  Lp_harness.Render.table
    ~columns:
      [ "workload"; "off mispred"; "guide mispred"; "vetoes"; "boosts" ]
    ~rows:
      (List.map
         (fun w ->
           let name = w.Lp_workloads.Workload.name in
           let l = per_workload name in
           [
             name;
             string_of_int (sum (fun (_, _, om, _, _, _, _, _) -> om) l);
             string_of_int (sum (fun (_, _, _, gm, _, _, _, _) -> gm) l);
             string_of_int (sum (fun (_, _, _, _, _, _, v, _) -> v) l);
             string_of_int (sum (fun (_, _, _, _, _, _, _, b) -> b) l);
           ])
         bench_workloads);
  print_endline "wrote BENCH_liveness.json";
  if !violations <> [] then begin
    Printf.eprintf "LIVENESS GATE FAILED (%d violation(s)):\n"
      (List.length !violations);
    List.iter (Printf.eprintf "  %s\n") (List.rev !violations);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Mark-cost scenario: the in-use mark alone, on three settled heaps.
   Each heap is a workload run for a fixed number of iterations under
   the default policy and then collected once. The mark is then timed
   [mark_reps] times through the collector with no filter, each mark
   abandoned once timed ([Store.abandon_mark]), and each after writing
   a 32 MB buffer, so each mark starts with the heap out of the CPU
   caches, as a collection after a stretch of mutator work does. The
   objects marked and fields scanned are deterministic; the per-object
   times are wall clock. *)

let mark_heaps =
  [
    ("MySQL", Lp_workloads.Mysql_leak.workload, 1_500);
    ("EclipseDiff", Lp_workloads.Eclipse_diff.workload, 3_000);
    ( "Pool",
      Lp_workloads.Dacapo.workload_of_spec
        {
          Lp_workloads.Dacapo.name = "MarkPool";
          pool_objects = 2_000;
          object_fields = 4;
          scalar_bytes = 32;
          allocations_per_iteration = 60;
          reads_per_iteration = 800;
          work_per_iteration = 160_000;
          seed = 1;
        },
      500 );
  ]

let mark_reps = 200

let cache_flush = Bytes.create (32 lsl 20)

let settled_vm (w : Lp_workloads.Workload.t) iterations =
  let vm =
    Lp_runtime.Vm.create ~config:(Lp_core.Config.make ())
      ~heap_bytes:w.Lp_workloads.Workload.default_heap_bytes ()
  in
  let iterate = w.Lp_workloads.Workload.prepare vm in
  for _ = 1 to iterations do
    iterate ()
  done;
  Lp_runtime.Vm.run_gc vm;
  vm

(* Times [mark_reps] marks of [vm]'s heap; returns the objects marked,
   the fields scanned and the wall time of each mark in seconds. *)
let time_marks vm =
  let store = Lp_runtime.Vm.store vm and roots = Lp_runtime.Vm.roots vm in
  let engine = Lp_heap.Collector.create () in
  let times = Array.make mark_reps 0. in
  let marked = ref 0 and scanned = ref 0 in
  for rep = 0 to mark_reps - 1 do
    Bytes.fill cache_flush 0 (Bytes.length cache_flush) (Char.chr (rep land 0xFF));
    let stats = Lp_heap.Gc_stats.create () in
    let t0 = Unix.gettimeofday () in
    ignore
      (Lp_heap.Collector.mark engine store roots ~stats
         ~config:Lp_heap.Collector.base_config);
    times.(rep) <- Unix.gettimeofday () -. t0;
    Lp_heap.Store.abandon_mark store;
    marked := stats.Lp_heap.Gc_stats.objects_marked;
    scanned := stats.Lp_heap.Gc_stats.fields_scanned
  done;
  (!marked, !scanned, times)

let run_mark_cost_bench () =
  Lp_harness.Render.header "Mark cost"
    "In-use mark of three settled heaps, caches flushed before each mark";
  let rows =
    List.map
      (fun (name, w, iterations) ->
        let vm = settled_vm w iterations in
        let marked, scanned, times = time_marks vm in
        let per_object s = s *. 1e9 /. float_of_int (max 1 marked) in
        Lp_runtime.Vm.shutdown vm;
        ( name,
          iterations,
          marked,
          scanned,
          per_object (fastest times),
          per_object (median times) ))
      mark_heaps
  in
  let json =
    Printf.sprintf "{\n  \"reps\": %d,\n  \"heaps\": [\n%s\n  ]\n}\n" mark_reps
      (String.concat ",\n"
         (List.map
            (fun (name, iterations, marked, scanned, best, med) ->
              Printf.sprintf
                "    {\"heap\": %S, \"iterations\": %d, \"objects_marked\": \
                 %d, \"fields_scanned\": %d, \"mark_ns_per_object\": %.1f, \
                 \"median_mark_ns_per_object\": %.1f}"
                name iterations marked scanned best med)
            rows))
  in
  write_bench "BENCH_mark.json" json;
  Lp_harness.Render.table
    ~columns:
      [ "heap"; "iterations"; "marked"; "fields"; "best ns/obj"; "median ns/obj" ]
    ~rows:
      (List.map
         (fun (name, iterations, marked, scanned, best, med) ->
           [
             name;
             string_of_int iterations;
             string_of_int marked;
             string_of_int scanned;
             Printf.sprintf "%.1f" best;
             Printf.sprintf "%.1f" med;
           ])
         rows);
  print_endline "wrote BENCH_mark.json"

(* ------------------------------------------------------------------ *)

(* Every scenario [main.exe ID] runs, in [--list] order: the paper's
   tables, figures and ablations, then the benches above. *)
let scenarios =
  Lp_harness.Experiments.all @ Lp_harness.Ablations.all
  @ [
      ("micro", "Bechamel microbenchmarks", run_microbenches);
      ( "resurrection",
        "Resurrection-overhead baseline (writes BENCH_resurrection.json)",
        run_resurrection_bench );
      ( "obs",
        "Disabled-observability overhead (writes BENCH_obs_overhead.json)",
        run_obs_overhead_bench ~gate:false );
      ( "obs-gate",
        "Same measurement; exit 1 if overhead exceeds the 3% budget",
        run_obs_overhead_bench ~gate:true );
      ( "fleet",
        "Multi-tenant fleet under chaos (writes BENCH_fleet.json; \
         exit 1 on any verifier failure or crash)",
        run_fleet_bench );
      ( "restart",
        "Warm vs cold restart cost over 25 seeds (writes \
         BENCH_restart.json; exit 1 unless every warm run beats \
         its cold baseline)",
        run_restart_bench );
      ( "mark-cost",
        "In-use mark ns per object on three settled heaps (writes \
         BENCH_mark.json)",
        run_mark_cost_bench );
      ( "liveness",
        "Static liveness oracle vs dynamic-only SELECT over 25 variants of \
         each bytecode-modelled workload (writes BENCH_liveness.json; \
         exit 1 unless guided is deterministic, never worse, and strictly \
         better somewhere)",
        run_liveness_bench );
    ]

let run_scenario id =
  match List.find_opt (fun (sid, _, _) -> sid = id) scenarios with
  | Some (_, _, run) -> run ()
  | None ->
    Printf.eprintf "unknown experiment %S; try --list\n" id;
    exit 1

let () =
  (* --csv DIR anywhere on the command line also writes the key tables
     and series as CSV files into DIR *)
  let args =
    let rec strip = function
      | "--csv" :: dir :: rest ->
        Lp_harness.Csv_export.set_directory (Some dir);
        strip rest
      | arg :: rest -> arg :: strip rest
      | [] -> []
    in
    strip (List.tl (Array.to_list Sys.argv))
  in
  match args with
  | [] ->
    (* obs-gate repeats the obs measurement as a pass/fail check, so a
       full run skips it *)
    List.iter (fun (id, _, run) -> if id <> "obs-gate" then run ()) scenarios
  | [ "--list" ] ->
    List.iter (fun (id, title, _) -> Printf.printf "%-13s %s\n" id title) scenarios
  | ids -> List.iter run_scenario ids
