open Lp_heap

type t = {
  store : Store.t;
  swap : Diskswap.t;
  controller : Lp_core.Controller.t;
  stats : Gc_stats.t;
  (* The poisoned targets the capture hook took. One list serves the
     capture and [retain]: the marked set is exactly the heap the sweep
     leaves, and neither capture nor the sweep writes a survivor's
     fields. *)
  mutable poisoned : int list;
  (* The inputs of the last retention pass: its poisoned targets and the
     swap store's generation after its drops. Generation -1 is no memo:
     the first pass always runs. *)
  mutable retained_poisoned : int list;
  mutable retained_generation : int;
  (* The walks of capture and retention, one at a time: an id is seen in
     the current walk when its stamp is [walk_epoch]; [walk_fifo] holds
     its ids in push order. The stamps grow on demand, as image
     references and forwards can name ids beyond the store's slots. *)
  mutable walk_stamps : int array;
  mutable walk_epoch : int;
  walk_fifo : Work_queue.t;
}

let create ~store ~swap ~controller ~stats =
  {
    store; swap; controller; stats;
    poisoned = [];
    retained_poisoned = [];
    retained_generation = -1;
    walk_stamps = [||];
    walk_epoch = 0;
    walk_fifo = Work_queue.create ~capacity:0 ();
  }

let grown a ~past =
  let a' = Array.make (max (past + 1) (max 64 (2 * Array.length a))) 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* A new walk: nothing seen, nothing queued. *)
let start_walk t =
  t.walk_epoch <- t.walk_epoch + 1;
  Work_queue.clear t.walk_fifo

let walked t id =
  id < Array.length t.walk_stamps && t.walk_stamps.(id) = t.walk_epoch

let push t id =
  if id >= Array.length t.walk_stamps then
    t.walk_stamps <- grown t.walk_stamps ~past:id;
  if t.walk_stamps.(id) <> t.walk_epoch then begin
    t.walk_stamps.(id) <- t.walk_epoch;
    Work_queue.push t.walk_fifo id
  end

(* enqueue an identifier and, if it was forwarded (pruned then
   resurrected), the identifier it forwards to *)
let enqueue_ref t id =
  push t id;
  match Diskswap.resolve_forward t.swap id with
  | Some final -> push t final
  | None -> ()

(* The loops run over the holders and each holder's fields from the
   top down, consing onto the front, so the list comes out in slot and
   field order with no reversal and no per-object closure. *)
let poisoned_targets store engine =
  let holders = Collector.poison_holders engine in
  Work_queue.sort holders;
  let acc = ref [] in
  for k = Work_queue.length holders - 1 downto 0 do
    let id = Work_queue.get holders k in
    for i = Store.n_fields store id - 1 downto 0 do
      let w = Store.field store id i in
      if (not (Word.is_null w)) && Word.poisoned w then
        acc := Word.target w :: !acc
    done
  done;
  !acc

(* An object this collection frees: present, but not reached by the
   open mark. *)
let dying t id = Store.mem t.store id && not (Store.marked t.store id)

(* Whether [capture_images] would store nothing: its drain stores and
   follows dying objects only, so with no doomed id and no poisoned
   target (nor what it forwards to) dying, it ends where it starts. *)
let nothing_to_capture t ~doomed ~poisoned =
  doomed = []
  && List.for_all
       (fun id ->
         (not (dying t id))
         &&
         match Diskswap.resolve_forward t.swap id with
         | Some final -> not (dying t final)
         | None -> true)
       poisoned

(* Runs between marking and the sweep, when liveness is decided but the
   doomed objects are still intact. The walk takes ids in the order
   they were pushed, each once: that order fixes the order of the
   [Image_capture] events and which write a Swap fault lands on. *)
let capture_images t ~doomed ~poisoned =
  if not (nothing_to_capture t ~doomed ~poisoned) then begin
    start_walk t;
    let follow = enqueue_ref t in
    List.iter follow doomed;
    List.iter follow poisoned;
    let next = ref 0 in
    while !next < Work_queue.length t.walk_fifo do
      let id = Work_queue.get t.walk_fifo !next in
      incr next;
      if dying t id then begin
        if not (Diskswap.has_image t.swap id) then
          Diskswap.store_image t.swap ~id (Swap_image.capture t.store id);
        (* the whole unmarked subtree dies with it *)
        for i = 0 to Store.n_fields t.store id - 1 do
          let w = Store.field t.store id i in
          if not (Word.is_null w) then enqueue_ref t (Word.target w)
        done
      end
    done
  end

(* The doomed ids come from the mark's poisoning filter, newest first;
   the list is local to the collection, so a collection a finalizer's
   allocation starts in the middle of another keeps its own. *)
let capture_hooks t =
  let doomed = ref [] in
  ( (fun (e : Collector.edge) -> doomed := e.Collector.tgt :: !doomed),
    fun () ->
      t.poisoned <-
        poisoned_targets t.store (Lp_core.Controller.engine t.controller);
      capture_images t ~doomed:!doomed ~poisoned:t.poisoned )

(* Each image's references were decoded once when it was stored; a
   corrupt image that is still referenced is retained without being
   followed, so the eventual access reports the real failure instead of
   Image_missing. The keep set is a function of the poisoned targets,
   the forwarding table and the stored images with their memoised
   references; the last two change only where the swap store's
   generation moves. After a pass every stored image is in the keep
   set, and dropping images outside it does not change it, so a pass
   over the same poisoned list at the same generation would drop
   nothing: it is skipped. *)
let retain t =
  if
    Diskswap.generation t.swap <> t.retained_generation
    || not (List.equal Int.equal t.poisoned t.retained_poisoned)
  then begin
    start_walk t;
    let follow = enqueue_ref t in
    List.iter follow t.poisoned;
    let next = ref 0 in
    while !next < Work_queue.length t.walk_fifo do
      let id = Work_queue.get t.walk_fifo !next in
      incr next;
      Diskswap.iter_image_refs t.swap id follow
    done;
    Diskswap.retain_images t.swap ~keep:(walked t);
    t.retained_poisoned <- t.poisoned;
    t.retained_generation <- Diskswap.generation t.swap
  end

let alloc_attempts = 4

(* Restore a field of the restored object. A reference whose target
   still has a swap image is re-poisoned: the original is dead awaiting
   its own resurrection, and whatever live object occupies the
   (possibly recycled) identifier now is not it. Otherwise a plain
   reference is rewired only when its (forward-resolved) target is live
   with the class recorded at capture time — identifier recycling
   cannot splice in an unrelated object. Everything else is
   re-poisoned: the edge stays pruned and a later access recovers it in
   turn. *)
let restored_word t (f : Swap_image.field) =
  let word = f.Swap_image.word in
  let repoison tid =
    t.stats.Gc_stats.words_repoisoned <- t.stats.Gc_stats.words_repoisoned + 1;
    Word.poison (Word.of_id tid)
  in
  if Word.is_null word then Word.null
  else if Word.poisoned word then word
  else begin
    let tid = Word.target word in
    match Diskswap.resolve_forward t.swap tid with
    | Some final when Store.mem t.store final -> Word.of_id final
    | Some final -> repoison final
    | None ->
      if Diskswap.has_image t.swap tid then repoison tid
      else if
        Store.mem t.store tid
        && Store.class_of t.store tid = f.Swap_image.referent_class
      then Word.of_id tid
      else repoison tid
  end

let restore t ~collect (src : Heap_obj.t) ~field =
  let src_id = Heap_obj.index src in
  let target = Word.target (Store.field t.store src_id field) in
  match Diskswap.resolve_forward t.swap target with
  | Some final when Store.mem t.store final ->
    (* a sibling reference already resurrected the object: rewire *)
    Store.set_field t.store src_id field (Word.of_id final);
    Ok (Store.get t.store final)
  | Some _ | None -> (
    match Diskswap.load_image t.swap target with
    | None when Store.mem t.store target ->
      (* The pruned edge's target survived through another live path, so
         no image was ever captured (capture only images dying objects)
         and the identifier cannot have been recycled: un-poison the
         word. Still a misprediction — the program used a pruned
         reference — so the edge type is protected all the same. *)
      let tgt = Store.get t.store target in
      Store.set_field t.store src_id field (Word.of_id target);
      Lp_core.Controller.note_misprediction t.controller
        ~src_class:(Store.class_of t.store src_id)
        ~tgt_class:(Store.class_of t.store target)
        ~stale:(Store.stale t.store target);
      Ok tgt
    | None -> Error Lp_core.Errors.Image_missing
    | Some bytes -> (
      match Swap_image.decode bytes with
      | Error reason -> Error reason
      | Ok image ->
        let n_fields = Array.length image.Swap_image.fields in
        let scalar_bytes = image.Swap_image.scalar_bytes in
        let size = Heap_obj.size_of ~n_fields ~scalar_bytes in
        (* bounded re-allocation through the collector: each retry runs a
           full collection, letting pruning (or plain reclamation) make
           room for the object coming back *)
        let rec obtain n =
          if Store.would_overflow t.store size then retry n
          else
            match
              Store.alloc_generation t.store ~nursery:false
                ~class_id:image.Swap_image.class_id ~n_fields ~scalar_bytes
                ~finalizable:false
            with
            | obj -> Ok obj
            | exception Store.Heap_full _ -> retry n
        and retry n =
          if n >= alloc_attempts then
            Error
              (Lp_core.Errors.Reallocation_exhausted
                 { attempts = n; size_bytes = size })
          else begin
            collect ();
            obtain (n + 1)
          end
        in
        (match obtain 0 with
        | Error _ as e -> e
        | Ok obj ->
          Array.iteri
            (fun i f ->
              Store.set_field t.store (Heap_obj.index obj) i (restored_word t f))
            image.Swap_image.fields;
          Store.set_stale t.store (Heap_obj.index obj) image.Swap_image.stale;
          Diskswap.forward t.swap ~old_id:target ~new_id:(Heap_obj.index obj);
          Diskswap.drop_image t.swap target;
          (* the collections [obtain] ran may have freed the source, and
             its words may belong to another object now *)
          if Store.is_live t.store src then
            Store.set_field t.store src_id field (Word.of_id (Heap_obj.index obj));
          t.stats.Gc_stats.resurrections <- t.stats.Gc_stats.resurrections + 1;
          (* misprediction feedback: protect the edge type and maybe
             enter the SAFE moratorium *)
          Lp_core.Controller.note_misprediction t.controller
            ~src_class:(Store.class_of t.store src_id)
            ~tgt_class:image.Swap_image.class_id ~stale:image.Swap_image.stale;
          Ok obj)))
