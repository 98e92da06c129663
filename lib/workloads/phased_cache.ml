open Lp_heap
open Lp_runtime

let cache_entries = 8
let payload_bytes = 900
let warm_iterations = 6
let first_touch = 24
let touch_period = 12
let leak_bytes = 300
let churn_bytes = 4_000
let churn_chunk = 500

(* statics: field 0 = cache table, field 1 = leak chain head.
   CacheTable: Object[] of CacheEntry; CacheEntry: fields [payload
   (String -> char[])]. The cache is built once and dominates the heap;
   the leak chain grows slowly and is never read.

   Phase 1 (the first [warm_iterations] iterations) walks the cache —
   down to the char[] — every iteration, so its edge types never record
   a high maxstaleuse. Then the cache goes silent until [first_touch]:
   in that gap its staleness saturates while the leak grows the heap
   into pruning range, so the cache qualifies at *saturated* staleness
   and is selected over the still-small leak — the misprediction the
   [first_touch] walk exposes. Resurrection recovers every entry, and
   each access protects the edge type at saturated-stale + slack, a bar
   the later maintenance walks (every [touch_period] iterations, fewer
   GCs apart than the bar) keep the cache below forever. Pruning
   settles on the leak chain from then on. A warm restart restores that
   protection from the checkpoint, so the rebuilt cache is never
   mispruned; a cold boot pays the whole learning burst again. *)
let prepare vm =
  let statics = Vm.statics vm ~class_name:"PhasedCache" ~n_fields:2 in
  Vm.with_frame vm ~n_slots:2 (fun frame ->
      let table =
        Vm.alloc vm ~class_name:"PhasedCache$Table" ~n_fields:cache_entries ()
      in
      Roots.set_slot frame 0 (Heap_obj.index table);
      Mutator.write_obj vm statics 0 table;
      for i = 0 to cache_entries - 1 do
        let payload = Jheap.alloc_string vm ~chars:payload_bytes in
        Roots.set_slot frame 1 (Heap_obj.index payload);
        let entry =
          Vm.alloc vm ~class_name:"PhasedCache$Entry" ~n_fields:1 ()
        in
        Mutator.write_obj vm entry 0 (Vm.deref vm (Roots.get_slot frame 1));
        let table = Vm.deref vm (Roots.get_slot frame 0) in
        Mutator.write_obj vm table i entry
      done);
  let iteration = ref 0 in
  let touch_cache () =
    match Mutator.read vm statics 0 with
    | None -> ()
    | Some table ->
      for i = 0 to cache_entries - 1 do
        match Mutator.read vm table i with
        | None -> ()
        | Some entry -> (
          match Mutator.read vm entry 0 with
          | None -> ()
          | Some payload -> ignore (Mutator.read vm payload 0))
      done
  in
  fun () ->
    incr iteration;
    let remaining = ref churn_bytes in
    while !remaining > 0 do
      let n = min !remaining churn_chunk in
      ignore
        (Vm.alloc vm ~class_name:"PhasedCache$Scratch" ~scalar_bytes:n
           ~n_fields:0 ());
      remaining := !remaining - n
    done;
    (let remaining = ref leak_bytes in
     while !remaining > 0 do
       let n = min !remaining 150 in
       Vm.with_frame vm ~n_slots:1 (fun frame ->
           let buf =
             Vm.alloc vm ~class_name:"PhasedCache$LeakBuf" ~scalar_bytes:n
               ~n_fields:0 ()
           in
           Roots.set_slot frame 0 (Heap_obj.index buf);
           ignore
             (Jheap.List_field.push vm ~node_class:"PhasedCache$LeakNode"
                ~holder:statics ~field:1
                ~payload:(Some (Vm.deref vm (Roots.get_slot frame 0)))));
       remaining := !remaining - n
     done);
    if
      !iteration <= warm_iterations
      || (!iteration >= first_touch && !iteration mod touch_period = 0)
    then touch_cache ();
    Vm.work vm 600

(* Bytecode model for the static liveness oracle. [touch] dereferences
   the whole cache path — statics slot 0, the table slots, the entry's
   payload, the string's char array — so every cache edge is {e read}
   somewhere in the program and comes out depth-bounded live
   ([Dead_beyond 1..4]): the oracle vetoes them even at saturated
   staleness, which is precisely the misprediction this workload was
   built to provoke. The leak-chain node fields are never loaded
   ([Dead_beyond 0]) and get the boost instead. *)
let bytecode =
  let open Lp_jit.Bytecode in
  [
    {
      name = "PhasedCache.prepare";
      n_locals = 5;  (* 0 = counter, 1 = table, 2 = chars, 3 = str, 4 = entry *)
      code =
        [|
          (* 0 *) New_object "PhasedCache$Table";
          (* 1 *) Store_local 1;
          (* 2 *) Const 0;
          (* 3 *) Load_local 1;
          (* 4 *) Put_field "PhasedCache$Statics.0";
          (* 5 *) Const cache_entries;
          (* 6 *) Store_local 0;
          (* 7 *) Load_local 0;  (* loop head *)
          (* 8 *) Jump_if_zero 30;
          (* 9 *) New_object "char[]";
          (* 10 *) Store_local 2;
          (* 11 *) New_object "java.lang.String";
          (* 12 *) Store_local 3;
          (* 13 *) Load_local 3;
          (* 14 *) Load_local 2;
          (* 15 *) Put_field "0";  (* str.value <- chars *)
          (* 16 *) New_object "PhasedCache$Entry";
          (* 17 *) Store_local 4;
          (* 18 *) Load_local 4;
          (* 19 *) Load_local 3;
          (* 20 *) Put_field "0";  (* entry.payload <- str *)
          (* 21 *) Load_local 1;
          (* 22 *) Load_local 0;
          (* 23 *) Load_local 4;
          (* 24 *) Array_store;  (* table[i] <- entry *)
          (* 25 *) Load_local 0;
          (* 26 *) Const 1;
          (* 27 *) Sub;
          (* 28 *) Store_local 0;
          (* 29 *) Jump 7;
          (* 30 *) Return;
        |];
    };
    {
      name = "PhasedCache.touch";
      n_locals = 3;  (* 0 = counter, 1 = table, 2 = scratch *)
      code =
        [|
          (* 0 *) Get_static "PhasedCache$Statics.0";
          (* 1 *) Store_local 1;
          (* 2 *) Const cache_entries;
          (* 3 *) Store_local 0;
          (* 4 *) Load_local 0;  (* loop head *)
          (* 5 *) Jump_if_zero 17;
          (* 6 *) Load_local 1;
          (* 7 *) Load_local 0;
          (* 8 *) Array_load;  (* entry <- table[i] *)
          (* 9 *) Get_field "0";  (* payload <- entry.0 *)
          (* 10 *) Get_field "0";  (* chars <- payload.value *)
          (* 11 *) Store_local 2;
          (* 12 *) Load_local 0;
          (* 13 *) Const 1;
          (* 14 *) Sub;
          (* 15 *) Store_local 0;
          (* 16 *) Jump 4;
          (* 17 *) Return;
        |];
    };
    {
      name = "PhasedCache.iterate";
      n_locals = 3;  (* 0 = counter, 1 = leak buffer, 2 = node / scratch *)
      code =
        [|
          (* 0 *) New_object "PhasedCache$Scratch";
          (* 1 *) Store_local 2;
          (* 2 *) Const 2;  (* leak pushes per iteration *)
          (* 3 *) Store_local 0;
          (* 4 *) Load_local 0;  (* loop head *)
          (* 5 *) Jump_if_zero 24;
          (* 6 *) New_object "PhasedCache$LeakBuf";
          (* 7 *) Store_local 1;
          (* 8 *) New_object "PhasedCache$LeakNode";
          (* 9 *) Store_local 2;
          (* 10 *) Load_local 2;
          (* 11 *) Get_static "PhasedCache$Statics.1";
          (* 12 *) Put_field "0";  (* node.next <- old head *)
          (* 13 *) Load_local 2;
          (* 14 *) Load_local 1;
          (* 15 *) Put_field "1";  (* node.payload <- buffer *)
          (* 16 *) Const 0;
          (* 17 *) Load_local 2;
          (* 18 *) Put_field "PhasedCache$Statics.1";  (* head <- node *)
          (* 19 *) Load_local 0;
          (* 20 *) Const 1;
          (* 21 *) Sub;
          (* 22 *) Store_local 0;
          (* 23 *) Jump 4;
          (* 24 *) Const 1;  (* phase schedule decides whether to touch *)
          (* 25 *) Jump_if_zero 28;
          (* 26 *) Call ("PhasedCache.touch", 0);
          (* 27 *) Store_local 2;
          (* 28 *) Return;
        |];
    };
  ]

let field_map =
  [
    ("PhasedCache$Statics", "0", [ 0 ]);
    ("PhasedCache$Statics", "1", [ 1 ]);
    ("PhasedCache$Table", "[]", List.init cache_entries (fun i -> i));
    ("PhasedCache$Entry", "0", [ 0 ]);
    ("java.lang.String", "0", [ 0 ]);
    ("PhasedCache$LeakNode", "0", [ 0 ]);
    ("PhasedCache$LeakNode", "1", [ 1 ]);
  ]

let workload =
  {
    Workload.name = "PhasedCache";
    description =
      "phase change: hot cache goes cold-but-live while a slow leak grows; \
       first prune mispredicts the cache until protection is learned";
    category = Workload.Mostly_dead;
    default_heap_bytes = 14_000;
    fixed_iterations = None;
    prepare;
    bytecode = Some bytecode;
    field_map;
  }
