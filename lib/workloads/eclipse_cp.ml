open Lp_heap
open Lp_runtime

let text_chars = 3_000  (* scaled from the paper's ~3 MB of text *)
let commands_per_iteration = 4  (* cut, save, paste, save *)
let cache_classes = 128
let cache_entry_bytes = 120
let churn_bytes = 30_000

let label_count = 16
let label_chars = 200

(* statics:
   field 0 = undo history list (TextCommand chain),
   field 1 = document event list (DocumentEvent chain),
   field 2 = Object[] of per-class cache chains,
   field 3 = Object[] of live UI label Strings.

   The labels are the trap the paper describes for the
   Individual-references policy: their String objects are live (one is
   read every iteration, rotating), but their char[] payloads sit stale
   between reads. The Default policy attributes the leaked undo text to
   TextCommand -> String data structures and never selects
   String -> char[]; Individual-references sizes references directly,
   selects String -> char[] (the fattest direct targets), and poisons
   the live labels' arrays along with the dead text — terminating the
   program the next time a label is rendered ("it selects and prunes
   highly stale, but live, String -> char[] references"). *)
let prepare vm =
  let statics = Vm.statics vm ~class_name:"EclipseCP" ~n_fields:4 in
  Vm.with_frame vm ~n_slots:1 (fun frame ->
      let caches = Jheap.alloc_array vm ~len:cache_classes () in
      Roots.set_slot frame 0 (Heap_obj.index caches);
      Mutator.write_obj vm statics 2 (Vm.deref vm (Roots.get_slot frame 0)));
  Vm.with_frame vm ~n_slots:2 (fun frame ->
      let labels = Jheap.alloc_array vm ~len:label_count () in
      Roots.set_slot frame 0 (Heap_obj.index labels);
      for i = 0 to label_count - 1 do
        let label = Jheap.alloc_string vm ~chars:label_chars in
        Roots.set_slot frame 1 (Heap_obj.index label);
        let labels = Vm.deref vm (Roots.get_slot frame 0) in
        Mutator.write_obj vm labels i (Vm.deref vm (Roots.get_slot frame 1))
      done;
      Mutator.write_obj vm statics 3 (Vm.deref vm (Roots.get_slot frame 0)));
  let iteration = ref 0 in
  let push_command node_class field =
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let text = Jheap.alloc_string vm ~chars:text_chars in
        Roots.set_slot frame 0 (Heap_obj.index text);
        ignore
          (Jheap.List_field.push vm ~node_class ~holder:statics ~field
             ~payload:(Some (Vm.deref vm (Roots.get_slot frame 0)))))
  in
  fun () ->
    incr iteration;
    let remaining = ref churn_bytes in
    while !remaining > 0 do
      let n = min !remaining 2_000 in
      ignore (Vm.alloc vm ~class_name:"EditorScratch" ~scalar_bytes:n ~n_fields:0 ());
      remaining := !remaining - n
    done;
    for _i = 1 to commands_per_iteration do
      push_command "DefaultUndoManager$TextCommand" 0;
      push_command "DocumentEvent" 1
    done;
    (* Render one UI label every few iterations, rotating: reads the
       live String and its char[] payload. Rare enough that the labels
       sit stale between renders — live data the Individual-references
       policy mistakes for leaks. *)
    if !iteration mod 8 = 0 then begin
      let labels = Mutator.read_exn vm statics 3 in
      match Mutator.read vm labels (!iteration / 8 mod label_count) with
      | Some label -> ignore (Jheap.string_length vm label)
      | None -> ()
    end;
    (* The undo manager keeps the most recent commands hot. This read
       happens immediately after the pushes, before any further
       allocation can trigger collections, mirroring an editor that
       touches the undo stack as part of the edit itself. *)
    let visited = ref 0 in
    (try
       Jheap.List_field.iter vm ~holder:statics ~field:0 (fun _node ->
           incr visited;
           if !visited >= 2 then raise Exit)
     with Exit -> ());
    (* Eclipse's object caches: one entry per iteration, in a rotating
       cache class; entries are read only rarely (every
       [cache_touch_period] iterations), so their edge types earn high
       maxstaleuse and resist pruning — the paper's slowly-creeping
       steady state. Reading a pruned cache entry is what finally
       terminates the run. *)
    let caches = Mutator.read_exn vm statics 2 in
    let slot = !iteration mod cache_classes in
    Vm.with_frame vm ~n_slots:2 (fun frame ->
        Roots.set_slot frame 0 (Heap_obj.index caches);
        let entry =
          Vm.alloc vm
            ~class_name:(Printf.sprintf "CacheEntry%03d" slot)
            ~scalar_bytes:cache_entry_bytes ~n_fields:1 ()
        in
        Roots.set_slot frame 1 (Heap_obj.index entry);
        let caches = Vm.deref vm (Roots.get_slot frame 0) in
        (match Mutator.read vm caches slot with
        | Some head -> Mutator.write_obj vm entry 0 head
        | None -> ());
        Mutator.write_obj vm caches slot entry);
    (* Walk one cache chain per iteration, rotating: each chain is read
       every [cache_classes] iterations, so its entries are observed at
       moderate staleness (teaching the edge table a moderate
       maxstaleuse) and a pruned entry is discovered within one rotation
       — the read that finally terminates the paper's run. *)
    begin
      let caches = Mutator.read_exn vm statics 2 in
      let chain = !iteration mod cache_classes in
      let rec walk = function
        | None -> ()
        | Some entry -> walk (Mutator.read vm entry 0)
      in
      walk (Mutator.read vm caches chain)
    end;
    Vm.work vm 3_000

let workload =
  {
    Workload.name = "EclipseCP";
    description =
      "Eclipse cut-save-paste-save: leaked undo/document strings (bug #155889)";
    category = Workload.Mostly_dead;
    default_heap_bytes = 512_000;
    fixed_iterations = None;
    prepare;
    bytecode = None;
    field_map = [];
  }
