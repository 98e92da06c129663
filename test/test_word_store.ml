(* The word store: every object's reference fields are a range of the
   one word array the store owns. A seeded property drives random
   sequences of allocations, field writes, root drops, collections and
   resurrections (re-allocating a dead object's field list, as a swap
   image restore does) against a plain model that maps each live
   identifier to its field list. After every step:

   - every live object's fields read back exactly as the model has them;
   - no two live objects' word ranges overlap, and every range lies in
     the array;
   - the array grows only when live objects' words fill it, so freed
     words are reused before it grows: after a growth it holds at most a
     quarter more than the live objects' words, or the [limit / 16]
     words a first growth may take;
   - its capacity stays within a bound proportional to
     [limit_bytes / Heap_obj.word_size].

   Each sequence runs twice, collecting once with the engine and once
   with the reference collector, and the two transcripts of identifiers
   and field lists must be identical. *)

open Lp_heap

type op =
  | Alloc of { n_fields : int; slot : int }
  | Write of { src : int; field : int; tgt : int }
  | Drop of int
  | Collect
  | Resurrect of { dead : int; slot : int }

let limit_bytes = 32_768

let root_slots = 8

let pp_op = function
  | Alloc { n_fields; slot } -> Printf.sprintf "alloc %d -> slot %d" n_fields slot
  | Write { src; field; tgt } -> Printf.sprintf "write %d.%d <- %d" src field tgt
  | Drop slot -> Printf.sprintf "drop slot %d" slot
  | Collect -> "collect"
  | Resurrect { dead; slot } -> Printf.sprintf "resurrect %d -> slot %d" dead slot

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun n_fields slot -> Alloc { n_fields; slot })
            (frequency [ (2, int_range 0 4); (1, int_range 5 400) ])
            (int_range 0 (root_slots - 1)) );
        ( 8,
          map3
            (fun src field tgt -> Write { src; field; tgt })
            nat nat nat );
        (2, map (fun slot -> Drop slot) (int_range 0 (root_slots - 1)));
        (1, return Collect);
        ( 1,
          map2
            (fun dead slot -> Resurrect { dead; slot })
            nat
            (int_range 0 (root_slots - 1)) );
      ])

(* The capacity a store starts with, or may grow to for live words of
   at most [limit_bytes / word_size]: every object has a two-word
   header, so its fields are fewer words than its bytes over
   [word_size]. *)
let capacity_bound =
  let initial = Store.word_capacity (Store.create ~limit_bytes) in
  let live_words = limit_bytes / Heap_obj.word_size in
  max initial (live_words + (live_words / 4) + 1)

exception Broken of string

let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt

(* Runs [ops] and returns the transcript: after every step, the live
   identifiers with their field lists, in identifier order. *)
let run ~reference ops =
  let store = Store.create ~limit_bytes in
  let roots = Roots.create () in
  let frame = Roots.push_frame (Roots.spawn_thread roots) ~n_slots:root_slots in
  let engine = Collector.create () in
  let model : (int, Word.t array) Hashtbl.t = Hashtbl.create 64 in
  let dead = ref [] in
  let live_ids () =
    List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) model [])
  in
  let live_words () = Hashtbl.fold (fun _ w acc -> acc + Array.length w) model 0 in
  let collect () =
    let stats = Gc_stats.create () in
    let config = Collector.base_config in
    if reference then begin
      ignore (Reference_collector.mark store roots ~stats ~config);
      Reference_collector.sweep store ~stats
    end
    else begin
      ignore (Collector.mark engine store roots ~stats ~config);
      Collector.sweep engine store ~stats
    end;
    let reached = Hashtbl.create 64 in
    let rec visit id =
      match Hashtbl.find_opt model id with
      | Some words when not (Hashtbl.mem reached id) ->
        Hashtbl.add reached id ();
        Array.iter (fun w -> if not (Word.is_null w) then visit (Word.target w)) words
      | Some _ | None -> ()
    in
    Roots.iter roots visit;
    Hashtbl.filter_map_inplace
      (fun id words ->
        if Hashtbl.mem reached id then Some words
        else begin
          dead := words :: !dead;
          None
        end)
      model
  in
  let alloc n_fields slot =
    let size = Heap_obj.size_of ~n_fields ~scalar_bytes:0 in
    if Store.would_overflow store size then collect ();
    if Store.would_overflow store size then None
    else begin
      let capacity = Store.word_capacity store in
      let obj =
        Store.alloc store ~class_id:0 ~n_fields ~scalar_bytes:0 ~finalizable:false
      in
      let id = obj.Heap_obj.id in
      Hashtbl.replace model id (Array.make n_fields Word.null);
      Roots.set_slot frame slot id;
      let grown = Store.word_capacity store in
      let live = live_words () in
      if grown > capacity && grown > max (live + (live / 4) + 1) (limit_bytes / 16)
      then
        broken "grew %d -> %d words with %d live words" capacity grown live;
      Some id
    end
  in
  let check () =
    if Store.object_count store <> Hashtbl.length model then
      broken "%d objects, model has %d" (Store.object_count store)
        (Hashtbl.length model);
    let ranges =
      List.map
        (fun id ->
          let words = Hashtbl.find model id in
          if not (Store.mem store id) then broken "object %d not live" id;
          if Store.n_fields store id <> Array.length words then
            broken "object %d has %d fields, model %d" id
              (Store.n_fields store id) (Array.length words);
          Array.iteri
            (fun i w ->
              if Store.field store id i <> w then
                broken "object %d field %d reads %d, model %d" id i
                  (Store.field store id i) w)
            words;
          let e = Store.extent store id in
          (Store.extent_offset e, Store.extent_count e, id))
        (live_ids ())
    in
    let capacity = Store.word_capacity store in
    if capacity > capacity_bound then
      broken "capacity %d words past the bound %d" capacity capacity_bound;
    let ranges =
      List.sort compare (List.filter (fun (_, n, _) -> n > 0) ranges)
    in
    ignore
      (List.fold_left
         (fun prev_end (off, n, id) ->
           if off < prev_end then broken "object %d's words overlap" id;
           if off + n > capacity then broken "object %d's words past the array" id;
           off + n)
         0 ranges);
    List.map
      (fun id -> (id, Array.to_list (Hashtbl.find model id)))
      (live_ids ())
  in
  List.map
    (fun op ->
      (match op with
      | Alloc { n_fields; slot } -> ignore (alloc n_fields slot)
      | Write { src; field; tgt } -> (
        match Array.of_list (live_ids ()) with
        | [||] -> ()
        | ids ->
          let s = ids.(src mod Array.length ids) in
          let words = Hashtbl.find model s in
          if Array.length words > 0 then begin
            let i = field mod Array.length words in
            let w =
              if tgt mod (Array.length ids + 1) = Array.length ids then Word.null
              else Word.of_id ids.(tgt mod Array.length ids)
            in
            Store.set_field store s i w;
            words.(i) <- w
          end)
      | Drop slot -> Roots.clear_slot frame slot
      | Collect -> collect ()
      | Resurrect { dead = k; slot } -> (
        match !dead with
        | [] -> ()
        | ds -> (
          let old = List.nth ds (k mod List.length ds) in
          match alloc (Array.length old) slot with
          | None -> ()
          | Some id ->
            Array.iteri
              (fun i w ->
                if (not (Word.is_null w)) && Hashtbl.mem model (Word.target w)
                then begin
                  Store.set_field store id i w;
                  (Hashtbl.find model id).(i) <- w
                end)
              old)));
      check ())
    ops

let prop_word_store =
  QCheck.Test.make ~name:"word store: agrees with the field-list model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 300) gen_op))
    (fun ops ->
      match (run ~reference:false ops, run ~reference:true ops) with
      | engine, reference ->
        if engine <> reference then
          QCheck.Test.fail_report "engine and reference transcripts differ";
        true
      | exception Broken msg -> QCheck.Test.fail_report msg)

let suite =
  ( "word_store",
    [
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |])
        prop_word_store;
    ] )
