(* The poisoned-target list a resurrection VM takes between the mark and
   the sweep, for image capture and retention. [Resurrection] builds it
   from the collector's poison holders; the reference here is the walk over every
   slot that the holder record replaced. The two must agree after every
   collection of generated programs that poison words in every way the
   runtime knows: injected before a collection, poisoned by the PRUNE
   filter during the mark, quarantined by the mark, in objects only the
   finalizer pass reaches, in objects a SELECT stale closure claims,
   several per object, and on engines with a slice budget. *)

open Lp_heap
open Lp_runtime

(* The walk: every slot from the top down and every marked object's
   fields from the top down, consing each poisoned word's target, so
   the list comes out in slot and field order. Also the ids of the
   objects holding one, ascending. Right after a collection the live
   objects are exactly those its mark reached. *)
let reference_walk store =
  let targets = ref [] and holders = ref [] in
  for id = Store.slot_count store downto 1 do
    if Store.mem store id then begin
      let held = ref false in
      for i = Store.n_fields store id - 1 downto 0 do
        let w = Store.field store id i in
        if (not (Word.is_null w)) && Word.poisoned w then begin
          targets := Word.target w :: !targets;
          held := true
        end
      done;
      if !held then holders := id :: !holders
    end
  done;
  (!targets, !holders)

type op =
  | Alloc of int * int * int  (* class, statics slot, field of a live object *)
  | Leak of bool  (* grow the leak chain; poison the new node's other word *)
  | Read of int * int  (* live object, field *)
  | Poison of int * int  (* live object, how many of its fields *)
  | Dangle of int * int  (* live object, field *)
  | Finalizable of int * int  (* poisoned fields, live object it refers to *)
  | Resurrect
  | Collect

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (20, map3 (fun c s f -> Alloc (c, s, f)) (0 -- 2) (0 -- 14) nat);
        (25, map (fun p -> Leak p) (frequencyl [ (3, false); (1, true) ]));
        (10, map2 (fun o f -> Read (o, f)) nat nat);
        (5, map2 (fun o k -> Poison (o, k)) nat (1 -- 3));
        (3, map2 (fun o f -> Dangle (o, f)) nat nat);
        (5, map2 (fun k o -> Finalizable (k, o)) (1 -- 2) nat);
        (4, return Resurrect);
        (8, return Collect);
      ])

type case = {
  heap_kb : int;
  policy : Lp_core.Policy.t;
  budget : bool;  (* a pause SLO, so the engine marks in slices *)
  ops : op list;
}

let gen_case =
  QCheck.Gen.(
    map
      (fun (heap_kb, policy, budget, ops) -> { heap_kb; policy; budget; ops })
      (quad (10 -- 16)
         (frequency
            [
              (4, return Lp_core.Policy.Default);
              (1, return Lp_core.Policy.Most_stale);
              (1, return Lp_core.Policy.Individual_refs);
            ])
         bool
         (list_size (100 -- 300) gen_op)))

let show_case c =
  Printf.sprintf "heap %d KB, %s, %s, %d ops" c.heap_kb
    (Lp_core.Policy.to_string c.policy)
    (if c.budget then "sliced" else "one pause")
    (List.length c.ops)

(* What the generated programs reached, over all of them. *)
type coverage = {
  mutable checks : int;
  mutable nonempty : int;  (* collections with a poisoned target *)
  mutable injected : int;  (* words poisoned before a collection *)
  mutable pruned : int;  (* collections whose filter poisoned a word *)
  mutable quarantined : int;  (* collections whose mark quarantined one *)
  mutable finalizer_holders : int;  (* reached by the finalizer pass only *)
  mutable stale_holders : int;
      (* leak-chain holders of collections whose stale closures claimed
         objects *)
  mutable multi_holders : int;  (* holders of several poisoned words *)
  mutable sliced : int;  (* collections checked on sliced engines *)
  mutable extra_slices : int;  (* their mark slices beyond one each *)
}

let cov =
  {
    checks = 0;
    nonempty = 0;
    injected = 0;
    pruned = 0;
    quarantined = 0;
    finalizer_holders = 0;
    stale_holders = 0;
    multi_holders = 0;
    sliced = 0;
    extra_slices = 0;
  }

exception Mismatch of string

let pp_ids l = String.concat "; " (List.map string_of_int l)

let count_poisoned store id =
  let n = ref 0 in
  for i = 0 to Store.n_fields store id - 1 do
    if Word.poisoned (Store.field store id i) then incr n
  done;
  !n

let run case =
  let config =
    Lp_core.Config.make ~policy:case.policy
      ?pause_slo_p99_ns:(if case.budget then Some 1 else None)
      ()
  in
  let vm =
    Vm.create ~config ~resurrection:true ~heap_bytes:(case.heap_kb * 1024) ()
  in
  let store = Vm.store vm and stats = Vm.stats vm in
  let finalized = ref [] and poisoned = ref 0 and claimed = ref 0 in
  let leak_class = ref (-1) in
  Vm.set_gc_listener vm
    (Some
       (fun _ ->
         let got =
           Resurrection.poisoned_targets store
             (Lp_core.Controller.engine (Vm.controller vm))
         in
         let want, holders = reference_walk store in
         if got <> want then
           raise
             (Mismatch
                (Printf.sprintf
                   "collection %d: holder record gives [%s], the walk [%s]"
                   (Vm.gc_count vm) (pp_ids got) (pp_ids want)));
         cov.checks <- cov.checks + 1;
         if want <> [] then cov.nonempty <- cov.nonempty + 1;
         if case.budget then cov.sliced <- cov.sliced + 1;
         (* only a collection's filter poisons references *)
         if stats.Gc_stats.references_poisoned > !poisoned then
           cov.pruned <- cov.pruned + 1;
         poisoned := stats.Gc_stats.references_poisoned;
         (* the stale closures claim the leak chain past the deferred
            edge *)
         let stale_claims = stats.Gc_stats.stale_closure_objects > !claimed in
         claimed := stats.Gc_stats.stale_closure_objects;
         List.iter
           (fun id ->
             if stale_claims && Store.class_of store id = !leak_class then
               cov.stale_holders <- cov.stale_holders + 1;
             if List.mem id !finalized then
               cov.finalizer_holders <- cov.finalizer_holders + 1;
             if count_poisoned store id > 1 then
               cov.multi_holders <- cov.multi_holders + 1)
           holders;
         finalized := []));
  let statics = Vm.statics vm ~class_name:"Roots" ~n_fields:16 in
  let classes = [| ("A", 2, 8); ("B", 3, 16); ("C", 1, 40) |] in
  leak_class := Vm.register_class vm "Leak";
  let leak_class = !leak_class in
  (* the [k mod n]th live object that is not a leak node (the program
     never touches the leak chain, or it would never go stale) *)
  let pick k =
    let eligible (obj : Heap_obj.t) =
      Store.class_of store (Heap_obj.index obj) <> leak_class
      && Store.n_fields store (Heap_obj.index obj) > 0
    in
    let n = ref 0 in
    Store.iter_live store (fun obj -> if eligible obj then incr n);
    if !n = 0 then None
    else begin
      let k = k mod !n and i = ref 0 and found = ref None in
      Store.iter_live store (fun obj ->
          if eligible obj then begin
            if !i = k then found := Some obj;
            incr i
          end);
      !found
    end
  in
  let n_fields obj = Store.n_fields store (Heap_obj.index obj) in
  let step = function
    | Alloc (c, slot, f) -> (
      let name, n, scalar_bytes = classes.(c) in
      let obj = Vm.alloc vm ~class_name:name ~scalar_bytes ~n_fields:n () in
      Mutator.write_obj vm statics slot obj;
      match pick f with
      | Some src -> Mutator.write_obj vm src (f mod n_fields src) obj
      | None -> ())
    | Leak poison ->
      let node =
        Vm.alloc_class vm ~class_id:leak_class ~scalar_bytes:200 ~n_fields:2 ()
      in
      (match Mutator.read vm statics 15 with
      | Some head -> Mutator.write_obj vm node 0 head
      | None -> ());
      Mutator.write_obj vm statics 15 node;
      if poison then begin
        Vm.inject_word_corruption vm node ~field:1 `Poison;
        cov.injected <- cov.injected + 1
      end
    | Read (o, f) -> (
      match pick o with
      | Some src -> ignore (Mutator.read vm src (f mod n_fields src))
      | None -> ())
    | Poison (o, k) -> (
      match pick o with
      | Some obj ->
        for field = 0 to min k (n_fields obj) - 1 do
          Vm.inject_word_corruption vm obj ~field `Poison;
          cov.injected <- cov.injected + 1
        done
      | None -> ())
    | Dangle (o, f) -> (
      match pick o with
      | Some obj ->
        Vm.inject_word_corruption vm obj ~field:(f mod n_fields obj) `Dangle
      | None -> ())
    | Finalizable (k, o) ->
      (* unrooted: only the finalizer pass reaches it, and what it
         refers to that nothing else does *)
      let obj =
        Vm.alloc vm ~class_name:"Fin" ~scalar_bytes:8 ~n_fields:3
          ~finalizer:(fun obj -> finalized := Heap_obj.index obj :: !finalized)
          ()
      in
      (match pick o with
      | Some tgt -> Mutator.write_obj vm obj 2 tgt
      | None -> ());
      for field = 0 to k - 1 do
        Vm.inject_word_corruption vm obj ~field `Poison;
        cov.injected <- cov.injected + 1
      done
    | Resurrect -> (
      let found = ref None in
      Store.iter_live store (fun obj ->
          for i = 0 to n_fields obj - 1 do
            let w = Store.field store (Heap_obj.index obj) i in
            if !found = None && Word.poisoned w then found := Some (obj, i)
          done);
      match !found with
      | Some (src, i) -> ignore (Mutator.read vm src i)
      | None -> ())
    | Collect ->
      let quarantined = stats.Gc_stats.words_quarantined in
      Vm.run_gc vm;
      if stats.Gc_stats.words_quarantined > quarantined then
        cov.quarantined <- cov.quarantined + 1
  in
  (try
     List.iter
       (fun op -> try step op with e when Lp_core.Errors.is_recoverable e -> ())
       case.ops
   with e when Lp_core.Errors.is_structured e -> ());
  if case.budget then
    cov.extra_slices <-
      cov.extra_slices
      + Collector.slices (Lp_core.Controller.engine (Vm.controller vm))
      - Vm.gc_count vm;
  true

let prop_holders_match_walk =
  QCheck.Test.make ~name:"poisoned targets from the holders equal the slot walk"
    ~count:150
    (QCheck.make ~print:show_case gen_case)
    run

let test_holders_match_walk () =
  (try
     QCheck.Test.check_exn ~rand:(Random.State.make [| 0x5107 |])
       prop_holders_match_walk
   with
  | Mismatch msg -> Alcotest.fail msg
  | QCheck.Test.Test_error (_, _, Mismatch msg, _) -> Alcotest.fail msg);
  (* the programs must reach every way a word gets poisoned *)
  List.iter
    (fun (what, n, floor) ->
      Alcotest.(check bool) (Printf.sprintf "%s (%d)" what n) true (n >= floor))
    [
      ("collections checked", cov.checks, 1_000);
      ("with a poisoned target", cov.nonempty, 500);
      ("words poisoned before a collection", cov.injected, 1);
      ("collections whose filter poisoned", cov.pruned, 1);
      ("collections whose mark quarantined", cov.quarantined, 1);
      ("holders only the finalizer pass reached", cov.finalizer_holders, 1);
      ("holders a stale closure claimed", cov.stale_holders, 1);
      ("holders of several poisoned words", cov.multi_holders, 1);
      ("collections on sliced engines", cov.sliced, 100);
      ("mark slices beyond one per collection", cov.extra_slices, 1);
    ]

let suite =
  ( "poison_holder",
    [
      Alcotest.test_case "holder record equals the slot walk" `Quick
        test_holders_match_walk;
    ] )
