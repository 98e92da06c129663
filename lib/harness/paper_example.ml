open Lp_heap
open Lp_runtime

type outcome = {
  candidate_count : int;
  selected : (string * string) option;
  bytes_used_b_c : int;
  reclaimed_bytes : int;
  survivors : string list;
  poisoned_access_raises : bool;
}

(* Object sizes: every B, C, D and E instance is exactly 20 bytes as in
   the paper ("suppose each object is 20 bytes"); A has four fields and
   is 24 — it is never claimed by a stale closure, so the 120-byte
   outcome is unaffected. *)
let run ?(verbose = false) () =
  let config = Lp_core.Config.make ~policy:Lp_core.Policy.Default () in
  let vm = Vm.create ~config ~heap_bytes:380 () in
  let names = Hashtbl.create 20 in
  let mk class_name name ~n_fields ~scalar =
    let obj = Vm.alloc vm ~class_name ~scalar_bytes:scalar ~n_fields () in
    Hashtbl.replace names obj.Heap_obj.id name;
    obj
  in
  (* No collection can trigger during construction: the whole heap fits. *)
  let a1 = mk "A" "a1" ~n_fields:4 ~scalar:0 in
  Roots.add_static_root (Vm.roots vm) a1.Heap_obj.id;
  let e1 = mk "E" "e1" ~n_fields:1 ~scalar:8 in
  Roots.add_static_root (Vm.roots vm) e1.Heap_obj.id;
  let bs = Array.init 4 (fun i -> mk "B" (Printf.sprintf "b%d" (i + 1)) ~n_fields:1 ~scalar:8) in
  let cs = Array.init 4 (fun i -> mk "C" (Printf.sprintf "c%d" (i + 1)) ~n_fields:2 ~scalar:4) in
  let ds = Array.init 8 (fun i -> mk "D" (Printf.sprintf "d%d" (i + 1)) ~n_fields:0 ~scalar:12) in
  Array.iteri (fun i b -> Mutator.write_obj vm a1 i b) bs;
  Array.iteri (fun i b -> Mutator.write_obj vm b 0 cs.(i)) bs;
  Array.iteri
    (fun i c ->
      Mutator.write_obj vm c 0 ds.(2 * i);
      Mutator.write_obj vm c 1 ds.((2 * i) + 1))
    cs;
  Mutator.write_obj vm e1 0 cs.(3);
  (* First collection: occupancy is ~96%, so the state machine moves
     straight to SELECT for the next collection. *)
  Vm.run_gc vm;
  (* Install Figure 5's staleness. The SELECT collection will tick the
     counters once more (collection number 2 increments counters 0 and
     1), so set pre-tick values whose post-tick values are the figure's:
     c1 = 3, c2 = 1, c3 = 3, c4 = 2. *)
  List.iteri
    (fun i k -> Store.set_stale (Vm.store vm) cs.(i).Heap_obj.id k)
    [ 3; 0; 3; 2 ];
  (* The D instances stay below staleness 2 (they tick to 1 in the
     SELECT collection), so no C -> D reference is a candidate; the
     stale closure claims them anyway as part of their data structure. *)
  let controller = Vm.controller vm in
  let registry = Vm.registry vm in
  let class_id name =
    match Class_registry.find registry name with
    | Some id -> id
    | None -> invalid_arg ("Paper_example: unknown class " ^ name)
  in
  (* Figure 5's edge table starts with maxstaleuse(E -> C) = 2. *)
  Lp_core.Edge_table.record_stale_use
    (Lp_core.Controller.edge_table controller)
    ~src:(class_id "E") ~tgt:(class_id "C") ~stale:2;
  let stats = Vm.stats vm in
  let candidates_before = stats.Gc_stats.candidates_enqueued in
  Vm.run_gc vm;  (* SELECT *)
  let candidate_count = stats.Gc_stats.candidates_enqueued - candidates_before in
  let selection = Lp_core.Controller.last_selection controller in
  let reclaimed_before = stats.Gc_stats.bytes_reclaimed in
  Vm.run_gc vm;  (* PRUNE *)
  let reclaimed_bytes = stats.Gc_stats.bytes_reclaimed - reclaimed_before in
  let survivors = ref [] in
  Store.iter_live (Vm.store vm) (fun obj ->
      match Hashtbl.find_opt names obj.Heap_obj.id with
      | Some name -> survivors := name :: !survivors
      | None -> ());
  let poisoned_access_raises =
    match Mutator.read vm bs.(0) 0 with
    | Some _ | None -> false
    | exception Lp_core.Errors.Internal_error _ -> true
  in
  let named = function
    | Some (src, tgt, _) ->
      Some (Class_registry.name registry src, Class_registry.name registry tgt)
    | None -> None
  in
  let outcome =
    {
      candidate_count;
      selected = named selection;
      bytes_used_b_c = (match selection with Some (_, _, b) -> b | None -> 0);
      reclaimed_bytes;
      survivors = List.sort compare !survivors;
      poisoned_access_raises;
    }
  in
  if verbose then begin
    Printf.printf "candidates enqueued in SELECT: %d (expected 3)\n"
      outcome.candidate_count;
    (match outcome.selected with
    | Some (src, tgt) ->
      Printf.printf "selected edge type: %s -> %s with bytesused = %d (expected B -> C, 120)\n"
        src tgt outcome.bytes_used_b_c
    | None -> print_endline "selected edge type: none (unexpected)");
    Printf.printf "bytes reclaimed by PRUNE: %d (expected 120: c1 d1 d2 c3 d5 d6)\n"
      outcome.reclaimed_bytes;
    Printf.printf "survivors: %s\n" (String.concat " " outcome.survivors);
    Printf.printf "reading b1.f after pruning raises InternalError: %b\n"
      outcome.poisoned_access_raises
  end;
  outcome
