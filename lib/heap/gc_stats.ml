type t = {
  mutable collections : int;
  mutable objects_marked : int;
  mutable fields_scanned : int;
  mutable untouched_bits_set : int;
  mutable stale_ticks : int;
  mutable stale_tick_scans : int;
  mutable candidates_enqueued : int;
  mutable stale_closure_objects : int;
  mutable references_poisoned : int;
  mutable selection_scans : int;
  mutable objects_swept : int;
  mutable bytes_reclaimed : int;
  mutable finalizers_enqueued : int;
  mutable words_quarantined : int;
  mutable resurrections : int;
  mutable resurrection_failures : int;
  mutable words_repoisoned : int;
}

let create () =
  {
    collections = 0;
    objects_marked = 0;
    fields_scanned = 0;
    untouched_bits_set = 0;
    stale_ticks = 0;
    stale_tick_scans = 0;
    candidates_enqueued = 0;
    stale_closure_objects = 0;
    references_poisoned = 0;
    selection_scans = 0;
    objects_swept = 0;
    bytes_reclaimed = 0;
    finalizers_enqueued = 0;
    words_quarantined = 0;
    resurrections = 0;
    resurrection_failures = 0;
    words_repoisoned = 0;
  }

let copy t =
  {
    collections = t.collections;
    objects_marked = t.objects_marked;
    fields_scanned = t.fields_scanned;
    untouched_bits_set = t.untouched_bits_set;
    stale_ticks = t.stale_ticks;
    stale_tick_scans = t.stale_tick_scans;
    candidates_enqueued = t.candidates_enqueued;
    stale_closure_objects = t.stale_closure_objects;
    references_poisoned = t.references_poisoned;
    selection_scans = t.selection_scans;
    objects_swept = t.objects_swept;
    bytes_reclaimed = t.bytes_reclaimed;
    finalizers_enqueued = t.finalizers_enqueued;
    words_quarantined = t.words_quarantined;
    resurrections = t.resurrections;
    resurrection_failures = t.resurrection_failures;
    words_repoisoned = t.words_repoisoned;
  }

let reset t =
  t.collections <- 0;
  t.objects_marked <- 0;
  t.fields_scanned <- 0;
  t.untouched_bits_set <- 0;
  t.stale_ticks <- 0;
  t.stale_tick_scans <- 0;
  t.candidates_enqueued <- 0;
  t.stale_closure_objects <- 0;
  t.references_poisoned <- 0;
  t.selection_scans <- 0;
  t.objects_swept <- 0;
  t.bytes_reclaimed <- 0;
  t.finalizers_enqueued <- 0;
  t.words_quarantined <- 0;
  t.resurrections <- 0;
  t.resurrection_failures <- 0;
  t.words_repoisoned <- 0

(* One (name, getter) row per field keeps publish and the record in
   sync by construction — adding a counter means adding a row here. *)
let fields : (string * (t -> int)) list =
  [
    ("gc.collections", fun t -> t.collections);
    ("gc.objects_marked", fun t -> t.objects_marked);
    ("gc.fields_scanned", fun t -> t.fields_scanned);
    ("gc.untouched_bits_set", fun t -> t.untouched_bits_set);
    ("gc.stale_ticks", fun t -> t.stale_ticks);
    ("gc.stale_tick_scans", fun t -> t.stale_tick_scans);
    ("gc.candidates_enqueued", fun t -> t.candidates_enqueued);
    ("gc.stale_closure_objects", fun t -> t.stale_closure_objects);
    ("gc.references_poisoned", fun t -> t.references_poisoned);
    ("gc.selection_scans", fun t -> t.selection_scans);
    ("gc.objects_swept", fun t -> t.objects_swept);
    ("gc.bytes_reclaimed", fun t -> t.bytes_reclaimed);
    ("gc.finalizers_enqueued", fun t -> t.finalizers_enqueued);
    ("gc.words_quarantined", fun t -> t.words_quarantined);
    ("gc.resurrections", fun t -> t.resurrections);
    ("gc.resurrection_failures", fun t -> t.resurrection_failures);
    ("gc.words_repoisoned", fun t -> t.words_repoisoned);
  ]

let publish t registry =
  List.iter
    (fun (name, get) ->
      Lp_obs.Metrics.set_counter (Lp_obs.Metrics.counter registry name) (get t))
    fields

let pp ppf t =
  Format.fprintf ppf
    "@[<v>collections: %d@ marked: %d@ fields scanned: %d@ stale ticks: %d@ \
     candidates: %d@ stale-closure objects: %d@ poisoned: %d@ swept: %d@ \
     bytes reclaimed: %d@ finalizers enqueued: %d@ words quarantined: %d@ \
     resurrections: %d (%d failed)@ words repoisoned: %d@]"
    t.collections t.objects_marked t.fields_scanned t.stale_ticks
    t.candidates_enqueued t.stale_closure_objects t.references_poisoned
    t.objects_swept t.bytes_reclaimed t.finalizers_enqueued t.words_quarantined
    t.resurrections t.resurrection_failures t.words_repoisoned
