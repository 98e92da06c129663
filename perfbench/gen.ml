open Lp_heap
open Lp_runtime
module Rand = Lp_workloads.Rand
module Workload = Lp_workloads.Workload

let stream ~seed ~tag =
  let open Int64 in
  let mix z =
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  let z = mix (add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int tag)) in
  Rand.create (to_int (logand z 0x3FFFFFFFFFFFFFFFL) lor 1)

let draw rand (lo, hi) = lo + Rand.below rand (hi - lo + 1)

(* The program's inputs, generated from the seed at set-up and read
   cyclically by the iterations, so no generator runs inside a timed
   iteration. *)
type tape = { data : int array; mutable pos : int }

let tape n f = { data = Array.init n (fun _ -> f ()); pos = 0 }

let next t =
  let v = t.data.(t.pos) in
  t.pos <- (if t.pos + 1 = Array.length t.data then 0 else t.pos + 1);
  v

let size = Heap_obj.size_of

let program ~name ~description ~category ~heap_bytes prepare =
  {
    Workload.name;
    description;
    category;
    default_heap_bytes = heap_bytes;
    fixed_iterations = None;
    prepare;
    bytecode = None;
    field_map = [];
  }

(* A long-lived table hanging off [statics.field]: an Object[] of
   entries, each optionally owning a payload object. Set-up code, so
   plain calls: the table is reachable from a static root throughout. *)
let build_table vm ~statics ~field ~prefix ~entries ~entry_bytes ~payload_bytes =
  let table_id = Vm.register_class vm (prefix ^ "$Table")
  and entry_id = Vm.register_class vm (prefix ^ "$Entry")
  and payload_id = Vm.register_class vm (prefix ^ "$Payload") in
  let table = Vm.alloc_class vm ~class_id:table_id ~n_fields:entries () in
  Mutator.write_obj vm statics field table;
  for i = 0 to entries - 1 do
    let entry =
      Vm.alloc_class vm ~class_id:entry_id ~scalar_bytes:entry_bytes ~n_fields:1 ()
    in
    Mutator.write_obj vm table i entry;
    if payload_bytes > 0 then
      Mutator.write_obj vm entry 0
        (Vm.alloc_class vm ~class_id:payload_id ~scalar_bytes:payload_bytes
           ~n_fields:0 ())
  done

let table_bytes ~entries ~entry_bytes ~payload_bytes =
  size ~n_fields:entries ~scalar_bytes:0
  + entries
    * (size ~n_fields:1 ~scalar_bytes:entry_bytes
      + if payload_bytes > 0 then size ~n_fields:0 ~scalar_bytes:payload_bytes else 0)

(* Pushes one session (node: next, payload) in front of [statics.field].
   The payload is rooted in a frame while the node is allocated. *)
let push_session vm ~statics ~field ~node_id ~payload_id ~payload_bytes =
  Vm.with_frame vm ~n_slots:1 (fun frame ->
      let payload =
        Ledger.alloc vm ~class_id:payload_id ~scalar_bytes:payload_bytes ~n_fields:0 ()
      in
      Roots.set_slot frame 0 payload.Heap_obj.id;
      let node = Ledger.alloc vm ~class_id:node_id ~n_fields:2 () in
      Ledger.write vm node 1 (Some (Vm.deref vm (Roots.get_slot frame 0)));
      Ledger.write vm node 0 (Ledger.read vm statics field);
      Ledger.write vm statics field (Some node))

(* ------------------------------------------------------------------ *)

(* Sessions leaked per iteration, each with a payload drawn from
   [payload_bytes]; one short-lived [churn_bytes] object per iteration;
   a long-lived table of [table_entries] built at set-up. *)
let sessions = 4
let payload_bytes = (64, 192)
let churn_bytes = (400, 1200)
let table_entries = 256
let entry_bytes = 64

(* Twice the non-leaking live size (table, statics, one iteration's
   transient objects): the paper's experimental setup. *)
let leak_heap_bytes =
  let statics = size ~n_fields:2 ~scalar_bytes:0 in
  let table = table_bytes ~entries:table_entries ~entry_bytes ~payload_bytes:0 in
  let iteration =
    size ~n_fields:0 ~scalar_bytes:(snd churn_bytes)
    + sessions
      * (size ~n_fields:2 ~scalar_bytes:0 + size ~n_fields:0 ~scalar_bytes:(snd payload_bytes))
  in
  2 * (statics + table + iteration)

let leak ~seed =
  let prepare vm =
    let statics = Vm.statics vm ~class_name:"PB.Leak" ~n_fields:2 in
    build_table vm ~statics ~field:1 ~prefix:"PB.Leak" ~entries:table_entries ~entry_bytes
      ~payload_bytes:0;
    let node_id = Vm.register_class vm "PB.Leak$Session"
    and payload_id = Vm.register_class vm "PB.Leak$SessionData"
    and churn_id = Vm.register_class vm "PB.Leak$Scratch" in
    let rand = stream ~seed ~tag:1 in
    let churn = tape 4096 (fun () -> draw rand churn_bytes)
    and payloads = tape 16384 (fun () -> draw rand payload_bytes) in
    fun () ->
      ignore (Ledger.alloc vm ~class_id:churn_id ~scalar_bytes:(next churn) ~n_fields:0 ());
      for _ = 1 to sessions do
        push_session vm ~statics ~field:0 ~node_id ~payload_id ~payload_bytes:(next payloads)
      done;
      Vm.work vm 300
  in
  program ~name:"pb-leak" ~description:"live head rooting a growing chain of dead sessions"
    ~category:Workload.All_dead ~heap_bytes:leak_heap_bytes prepare

(* ------------------------------------------------------------------ *)

(* A live pool of [objects] nodes; per iteration [replaced] slots are
   allocated and written, and [reads] skewed reads go 7/8 to the hot
   eighth of the pool. *)
let objects = 2_000
let fields = 4
let scalar_bytes = 32
let replaced = 60
let reads = 800

(* Four times the live pool: collections are rare and pruning never
   engages. *)
let pool_heap_bytes =
  4
  * (size ~n_fields:1 ~scalar_bytes:0
    + size ~n_fields:objects ~scalar_bytes:0
    + (objects * size ~n_fields:fields ~scalar_bytes))

let pool ~seed =
  let prepare vm =
    let statics = Vm.statics vm ~class_name:"PB.Pool" ~n_fields:1 in
    let array_id = Vm.register_class vm "PB.Pool$Array"
    and node_id = Vm.register_class vm "PB.Pool$Node" in
    let rand = stream ~seed ~tag:2 in
    let new_node () = Vm.alloc_class vm ~class_id:node_id ~scalar_bytes ~n_fields:fields () in
    let slots = Vm.alloc_class vm ~class_id:array_id ~n_fields:objects () in
    Mutator.write_obj vm statics 0 slots;
    for i = 0 to objects - 1 do
      let node = new_node () in
      Mutator.write_obj vm slots i node;
      if i > 0 then Mutator.write_obj vm node 0 (Mutator.read_exn vm slots (Rand.below rand i))
    done;
    let hot = max 1 (objects / 8) in
    let any = tape 16384 (fun () -> Rand.below rand objects)
    and skewed =
      tape 65536 (fun () ->
          if Rand.below rand 8 < 7 then Rand.below rand hot else Rand.below rand objects)
    in
    fun () ->
      (* The pool array stays reachable from the static root, so holding
         it across allocations keeps heap discipline. *)
      let slots = Option.get (Ledger.read vm statics 0) in
      for _ = 1 to replaced do
        let node = Ledger.alloc vm ~class_id:node_id ~scalar_bytes ~n_fields:fields () in
        let victim = next any in
        Ledger.write vm node 0 (Ledger.read vm slots (next any));
        (match Ledger.read vm slots victim with
        | Some old -> Ledger.write vm old 0 None
        | None -> ());
        Ledger.write vm slots victim (Some node)
      done;
      for _ = 1 to reads do
        match Ledger.read vm slots (next skewed) with
        | Some node -> ignore (Ledger.read vm node 0)
        | None -> ()
      done;
      Vm.work vm 160_000
  in
  program ~name:"pb-pool" ~description:"bounded pool with skewed reads, no leak"
    ~category:Workload.Short_running ~heap_bytes:pool_heap_bytes prepare

(* ------------------------------------------------------------------ *)

(* The cache is walked every iteration for the first [warm_iterations],
   then at [first_touch] and every [touch_period] after it. Each
   iteration leaks [reread_sessions] sessions and allocates
   [churn_chunks] short-lived objects. *)
let cache_entries = 8
let cache_payload_bytes = 900
let warm_iterations = 6
let first_touch = 48
let touch_period = 24
let reread_sessions = 2
let session_bytes = (100, 200)
let churn_chunks = 8
let chunk_bytes = (400, 600)

(* Twice the long-lived cache: the churn then drives frequent
   collections and the leak reaches pruning range within a few dozen
   iterations, as in PhasedCache. *)
let reread_heap_bytes =
  2
  * (size ~n_fields:2 ~scalar_bytes:0
    + table_bytes ~entries:cache_entries ~entry_bytes:0 ~payload_bytes:cache_payload_bytes)

(* The cache is walked every iteration while warm, then goes quiet while
   the leak grows the heap into pruning range: its staleness saturates,
   SELECT picks it over the younger leak, and the next walk reads
   poisoned references — resurrected from swap images, after which the
   edge type is protected and pruning settles on the leak. *)
let reread ~seed =
  let prepare vm =
    let statics = Vm.statics vm ~class_name:"PB.Reread" ~n_fields:2 in
    build_table vm ~statics ~field:0 ~prefix:"PB.Reread" ~entries:cache_entries
      ~entry_bytes:0 ~payload_bytes:cache_payload_bytes;
    let node_id = Vm.register_class vm "PB.Reread$Session"
    and payload_id = Vm.register_class vm "PB.Reread$SessionData"
    and churn_id = Vm.register_class vm "PB.Reread$Scratch" in
    let rand = stream ~seed ~tag:3 in
    let chunks = tape 4096 (fun () -> draw rand chunk_bytes)
    and sessions = tape 1024 (fun () -> draw rand session_bytes) in
    let iteration = ref 0 in
    let walk () =
      match Ledger.read vm statics 0 with
      | None -> ()
      | Some table ->
        for i = 0 to cache_entries - 1 do
          match Ledger.read vm table i with
          | Some entry -> ignore (Ledger.read vm entry 0)
          | None -> ()
        done
    in
    fun () ->
      incr iteration;
      for _ = 1 to churn_chunks do
        ignore (Ledger.alloc vm ~class_id:churn_id ~scalar_bytes:(next chunks) ~n_fields:0 ())
      done;
      for _ = 1 to reread_sessions do
        push_session vm ~statics ~field:1 ~node_id ~payload_id ~payload_bytes:(next sessions)
      done;
      if
        !iteration <= warm_iterations
        || (!iteration >= first_touch && (!iteration - first_touch) mod touch_period = 0)
      then walk ();
      Vm.work vm 600
  in
  program ~name:"pb-reread" ~description:"quiet cache mispruned, then read again"
    ~category:Workload.Mostly_dead ~heap_bytes:reread_heap_bytes prepare
