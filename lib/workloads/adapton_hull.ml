open Lp_heap
open Lp_runtime

let memo_nodes = 8
let point_bytes = 900
let warm_iterations = 6
let first_demand = 24
let demand_period = 12
let trace_bytes = 300
let trace_chunk = 150
let churn_bytes = 4_000
let churn_chunk = 500

(* statics: field 0 = memoization chain head, field 1 = trace log head.

   An Adapton-style incremental quickhull: each AdaptonHull$Memo node
   memoizes one hull segment — field 0 is the dependency edge to the
   next memo node, field 1 the computed segment (a fat
   AdaptonHull$Point). Demanding the hull walks the whole dependency
   chain and rebuilds the head node (churning the dependency edge and
   its result, as Adapton's dirtying/re-evaluation does), so edges are
   repeatedly torn down and resurrected around objects that stay live.
   A trace log of every re-evaluation grows beside it and is never read
   back — the genuine leak.

   The demand schedule mirrors PhasedCache: warm demands every
   iteration, then silence until [first_demand], then sparse
   maintenance demands. In the silent gap the memo chain's staleness
   saturates while the trace log grows the heap into pruning range, so
   a dynamic-only SELECT picks the heavier memo chain — stale but
   live — and the [first_demand] walk exposes the misprediction. The
   static oracle sees the demand loop in the bytecode: the dependency
   slot is read inside a cycle ([Maybe_live]) and the result slot is
   depth-bounded live ([Dead_beyond 1]), so both are vetoed however
   stale they get, and guided pruning goes straight for the trace
   log. *)
let prepare vm =
  let statics = Vm.statics vm ~class_name:"AdaptonHull" ~n_fields:2 in
  for _i = 1 to memo_nodes do
    Vm.with_frame vm ~n_slots:2 (fun frame ->
        let point =
          Vm.alloc vm ~class_name:"AdaptonHull$Point" ~scalar_bytes:point_bytes
            ~n_fields:0 ()
        in
        Roots.set_slot frame 0 (Heap_obj.index point);
        let memo = Vm.alloc vm ~class_name:"AdaptonHull$Memo" ~n_fields:2 () in
        Roots.set_slot frame 1 (Heap_obj.index memo);
        (match Mutator.read vm statics 0 with
        | Some head -> Mutator.write_obj vm memo 0 head
        | None -> ());
        Mutator.write_obj vm memo 1 (Vm.deref vm (Roots.get_slot frame 0));
        Mutator.write_obj vm statics 0
          (Vm.deref vm (Roots.get_slot frame 1)))
  done;
  let iteration = ref 0 in
  let demand () =
    (* demand the hull: walk every dependency edge and result *)
    let rec walk = function
      | None -> ()
      | Some node ->
        ignore (Mutator.read vm node 1);
        walk (Mutator.read vm node 0)
    in
    walk (Mutator.read vm statics 0);
    (* re-evaluate the head segment: fresh result, fresh dependency
       edge onto the old head's dependency — the old head dies *)
    match Mutator.read vm statics 0 with
    | None -> ()
    | Some head ->
      Vm.with_frame vm ~n_slots:2 (fun frame ->
          Roots.set_slot frame 0 (Heap_obj.index head);
          let point =
            Vm.alloc vm ~class_name:"AdaptonHull$Point"
              ~scalar_bytes:point_bytes ~n_fields:0 ()
          in
          Roots.set_slot frame 1 (Heap_obj.index point);
          let memo =
            Vm.alloc vm ~class_name:"AdaptonHull$Memo" ~n_fields:2 ()
          in
          let head = Vm.deref vm (Roots.get_slot frame 0) in
          (match Mutator.read vm head 0 with
          | Some dep -> Mutator.write_obj vm memo 0 dep
          | None -> ());
          Mutator.write_obj vm memo 1 (Vm.deref vm (Roots.get_slot frame 1));
          Mutator.write_obj vm statics 0 memo)
  in
  fun () ->
    incr iteration;
    let remaining = ref churn_bytes in
    while !remaining > 0 do
      let n = min !remaining churn_chunk in
      ignore
        (Vm.alloc vm ~class_name:"AdaptonHull$Scratch" ~scalar_bytes:n
           ~n_fields:0 ());
      remaining := !remaining - n
    done;
    (let remaining = ref trace_bytes in
     while !remaining > 0 do
       let n = min !remaining trace_chunk in
       Vm.with_frame vm ~n_slots:1 (fun frame ->
           let buf =
             Vm.alloc vm ~class_name:"AdaptonHull$TraceBuf" ~scalar_bytes:n
               ~n_fields:0 ()
           in
           Roots.set_slot frame 0 (Heap_obj.index buf);
           ignore
             (Jheap.List_field.push vm ~node_class:"AdaptonHull$Trace"
                ~holder:statics ~field:1
                ~payload:(Some (Vm.deref vm (Roots.get_slot frame 0)))));
       remaining := !remaining - n
     done);
    if
      !iteration <= warm_iterations
      || (!iteration >= first_demand && !iteration mod demand_period = 0)
    then demand ();
    Vm.work vm 600

(* The bytecode the oracle analyzes: the demand loop reads the
   dependency slot of a value that can only be another Memo — a cycle
   in the value-flow graph — and the result slot one hop deep. *)
let bytecode =
  let open Lp_jit.Bytecode in
  [
    {
      name = "AdaptonHull.prepare";
      n_locals = 3;  (* 0 = counter, 1 = point, 2 = memo *)
      code =
        [|
          (* 0 *) Const memo_nodes;
          (* 1 *) Store_local 0;
          (* 2 *) Load_local 0;  (* loop head *)
          (* 3 *) Jump_if_zero 22;
          (* 4 *) New_object "AdaptonHull$Point";
          (* 5 *) Store_local 1;
          (* 6 *) New_object "AdaptonHull$Memo";
          (* 7 *) Store_local 2;
          (* 8 *) Load_local 2;
          (* 9 *) Load_local 1;
          (* 10 *) Put_field "1";  (* memo.result <- point *)
          (* 11 *) Load_local 2;
          (* 12 *) Get_static "AdaptonHull$Statics.0";
          (* 13 *) Put_field "0";  (* memo.dep <- old head *)
          (* 14 *) Const 0;
          (* 15 *) Load_local 2;
          (* 16 *) Put_field "AdaptonHull$Statics.0";
          (* 17 *) Load_local 0;
          (* 18 *) Const 1;
          (* 19 *) Sub;
          (* 20 *) Store_local 0;
          (* 21 *) Jump 2;
          (* 22 *) Return;
        |];
    };
    {
      name = "AdaptonHull.demand";
      n_locals = 3;  (* 0 = cursor, 1 = result / point, 2 = memo *)
      code =
        [|
          (* 0 *) Get_static "AdaptonHull$Statics.0";
          (* 1 *) Store_local 0;
          (* 2 *) Load_local 0;  (* walk loop head *)
          (* 3 *) Jump_if_zero 11;
          (* 4 *) Load_local 0;
          (* 5 *) Get_field "1";  (* result *)
          (* 6 *) Store_local 1;
          (* 7 *) Load_local 0;
          (* 8 *) Get_field "0";  (* dep: Memo -> Memo, the cycle *)
          (* 9 *) Store_local 0;
          (* 10 *) Jump 2;
          (* re-evaluate the head segment *)
          (* 11 *) New_object "AdaptonHull$Point";
          (* 12 *) Store_local 1;
          (* 13 *) New_object "AdaptonHull$Memo";
          (* 14 *) Store_local 2;
          (* 15 *) Load_local 2;
          (* 16 *) Load_local 1;
          (* 17 *) Put_field "1";
          (* 18 *) Load_local 2;
          (* 19 *) Get_static "AdaptonHull$Statics.0";
          (* 20 *) Get_field "0";
          (* 21 *) Put_field "0";  (* new.dep <- head.dep *)
          (* 22 *) Const 0;
          (* 23 *) Load_local 2;
          (* 24 *) Put_field "AdaptonHull$Statics.0";
          (* 25 *) Return;
        |];
    };
    {
      name = "AdaptonHull.iterate";
      n_locals = 3;  (* 0 = counter, 1 = trace buffer, 2 = node / scratch *)
      code =
        [|
          (* 0 *) New_object "AdaptonHull$Scratch";
          (* 1 *) Store_local 2;
          (* 2 *) Const 2;  (* trace pushes per iteration *)
          (* 3 *) Store_local 0;
          (* 4 *) Load_local 0;  (* loop head *)
          (* 5 *) Jump_if_zero 24;
          (* 6 *) New_object "AdaptonHull$TraceBuf";
          (* 7 *) Store_local 1;
          (* 8 *) New_object "AdaptonHull$Trace";
          (* 9 *) Store_local 2;
          (* 10 *) Load_local 2;
          (* 11 *) Get_static "AdaptonHull$Statics.1";
          (* 12 *) Put_field "0";  (* trace.next <- old head *)
          (* 13 *) Load_local 2;
          (* 14 *) Load_local 1;
          (* 15 *) Put_field "1";  (* trace.payload <- buffer *)
          (* 16 *) Const 0;
          (* 17 *) Load_local 2;
          (* 18 *) Put_field "AdaptonHull$Statics.1";
          (* 19 *) Load_local 0;
          (* 20 *) Const 1;
          (* 21 *) Sub;
          (* 22 *) Store_local 0;
          (* 23 *) Jump 4;
          (* 24 *) Const 1;  (* demand schedule *)
          (* 25 *) Jump_if_zero 28;
          (* 26 *) Call ("AdaptonHull.demand", 0);
          (* 27 *) Store_local 2;
          (* 28 *) Return;
        |];
    };
  ]

let field_map =
  [
    ("AdaptonHull$Statics", "0", [ 0 ]);
    ("AdaptonHull$Statics", "1", [ 1 ]);
    ("AdaptonHull$Memo", "0", [ 0 ]);
    ("AdaptonHull$Memo", "1", [ 1 ]);
    ("AdaptonHull$Trace", "0", [ 0 ]);
    ("AdaptonHull$Trace", "1", [ 1 ]);
  ]

let workload =
  {
    Workload.name = "AdaptonHull";
    description =
      "incremental quickhull: churning memoized dependency edges stay live \
       while an unread re-evaluation trace leaks; static liveness must veto \
       the stale-but-live memo chain";
    category = Workload.Mostly_dead;
    default_heap_bytes = 14_000;
    fixed_iterations = None;
    prepare;
    bytecode = Some bytecode;
    field_map;
  }
