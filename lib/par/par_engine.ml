open Lp_heap

(* Growable int buffer; the per-packet scan output. *)
type buf = { mutable a : int array; mutable len : int }

let buf_make n = { a = Array.make (max n 1) 0; len = 0 }

let buf_push b v =
  if b.len = Array.length b.a then begin
    let a = Array.make ((2 * b.len) + 8) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- v;
  b.len <- b.len + 1

(* One work packet: a contiguous slice [lo, hi) of the current frontier,
   plus everything a worker produced while scanning it. Packets are
   merged in index order, so the concatenation of their outputs equals a
   sequential scan of the frontier — independent of which worker scanned
   what, and of the domain count.

   Packet records and their buffers are pooled and reset between rounds
   (see [packets_for]): a deep-chain closure runs thousands of tiny
   rounds, and the old allocate-per-round scheme made allocation, not
   tracing, the dominant cost at 2 domains. *)
type packet = {
  mutable lo : int;
  mutable hi : int;
  disc : buf;  (* ids of unmarked Trace targets, in field order *)
  mutable seal : int;  (* checksum over [disc], computed as it fills *)
  quar : buf;  (* quarantined target ids, in field order *)
  mutable deferred : Collector.edge list;  (* reverse field order *)
  mutable poisons : Collector.edge list;  (* reverse field order *)
  mutable notes : (int * int * int) list;  (* reverse field order *)
  mutable fields_scanned : int;
  mutable untouched_set : int;
}

let packet_make () =
  {
    lo = 0;
    hi = 0;
    disc = buf_make 32;
    seal = 0;
    quar = buf_make 1;
    deferred = [];
    poisons = [];
    notes = [];
    fields_scanned = 0;
    untouched_set = 0;
  }

(* [recompute_disc] may have swapped a recovered packet's [disc.a] for a
   fresh array, so resetting lengths (not contents) is enough. *)
let packet_reset p ~lo ~hi =
  p.lo <- lo;
  p.hi <- hi;
  p.disc.len <- 0;
  p.seal <- 0;
  p.quar.len <- 0;
  p.deferred <- [];
  p.poisons <- [];
  p.notes <- [];
  p.fields_scanned <- 0;
  p.untouched_set <- 0

let seal_step seal id = ((seal * 31) + id + 1) land max_int

type t = {
  pool : Domain_pool.t;
  packet_size : int;
  inline_threshold : int;
  steal : bool;  (* steal-driven rounds (sessions + deques) vs legacy *)
  deques : Deque.t array;  (* one per worker, refilled every round *)
  work_shards : int array;  (* per-worker mark/sweep work, one phase *)
  stale_shards : int array;  (* per-worker stale-closure work, one GC *)
  steal_shards : int array;  (* per-worker REAL steals, one phase; racy *)
  mutable packet_pool : packet array;  (* reused across rounds *)
  ticks : Trace_common.tick_batch;  (* mark-phase ticks, coordinator only *)
  mutable corrupt_armed : bool;
  mutable steal_armed : bool;
  mutable pooled_rounds : int;
  mutable dispatches : int;  (* pool wake/join handshakes paid *)
  mutable steals : int;  (* total successful steals (schedule-dependent) *)
  mutable packet_recoveries : int;
  mutable steal_races : int;
  (* Sliced-BSP mode: when set, each BSP round's packets are executed
     and merged in groups of at most [slice_budget / packet_size]
     packets, every group recorded as one bounded pause slice, and the
     sweep runs through [Trace_common.sliced_sweep]. [None] is the
     classic whole-round engine. *)
  mutable slice_budget : int option;
  mutable pauses : (Trace_engine.pause_phase * int) list;  (* reverse *)
  mutable max_slice : int;  (* most frontier objects scanned per slice *)
}

let create ?(packet_size = 32) ?(inline_threshold = 16) ?(steal = true)
    ?slice_budget pool =
  if packet_size < 1 then invalid_arg "Par_engine.create: packet_size < 1";
  (match slice_budget with
  | Some b when b < 1 -> invalid_arg "Par_engine.create: slice_budget < 1"
  | Some _ | None -> ());
  let d = Domain_pool.domains pool in
  {
    pool;
    packet_size;
    inline_threshold = max inline_threshold 1;
    steal;
    deques = Array.init d (fun _ -> Deque.create ());
    work_shards = Array.make d 0;
    stale_shards = Array.make d 0;
    steal_shards = Array.make d 0;
    packet_pool = [||];
    ticks = Trace_common.tick_batch ();
    corrupt_armed = false;
    steal_armed = false;
    pooled_rounds = 0;
    dispatches = 0;
    steals = 0;
    packet_recoveries = 0;
    steal_races = 0;
    slice_budget;
    pauses = [];
    max_slice = 0;
  }

let slice_budget t = t.slice_budget

let set_slice_budget t budget =
  if budget < 1 then invalid_arg "Par_engine.set_slice_budget: budget < 1";
  match t.slice_budget with
  | None ->
    invalid_arg "Par_engine.set_slice_budget: engine is not in sliced mode"
  | Some _ -> t.slice_budget <- Some budget

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let record_pause t phase slice_start =
  let now = now_ns () in
  t.pauses <- (phase, now - !slice_start) :: t.pauses;
  slice_start := now

let domains t = Domain_pool.domains t.pool

let pooled_rounds t = t.pooled_rounds

let dispatches t = t.dispatches

let steals t = t.steals

let stealing t = t.steal

let packet_recoveries t = t.packet_recoveries

let steal_races t = t.steal_races

let arm_corrupt_packet t = t.corrupt_armed <- true

let arm_steal_race t = t.steal_armed <- true

(* The steal-driven worker body for one round. Every worker drains its
   own deque LIFO, then sweeps the other deques FIFO; a full sweep that
   finds every victim [Empty] terminates the worker — sound because the
   coordinator pre-filled all deques before the round and nobody pushes
   mid-round, so emptiness is monotone. A lost CAS ([Retry]) means the
   victim may still hold work, so the sweep restarts. *)
let steal_worker t ~scan packets w =
  let d = Array.length t.deques in
  let own = t.deques.(w) in
  let rec drain () =
    match Deque.pop own with
    | Some i ->
      scan packets.(i);
      drain ()
    | None -> sweep 1 0
  and sweep j empties =
    if j >= d then (if empties = d - 1 then () else sweep 1 0)
    else
      match Deque.steal t.deques.((w + j) mod d) with
      | Deque.Stolen i ->
        t.steal_shards.(w) <- t.steal_shards.(w) + 1;
        scan packets.(i);
        drain ()
      | Deque.Empty -> sweep (j + 1) (empties + 1)
      | Deque.Retry ->
        Domain.cpu_relax ();
        sweep (j + 1) empties
  in
  drain ()

(* Runs [scan] over every packet — steal-driven inside a session, via a
   legacy per-round dispatch when steal is off, inline on the
   coordinator when the round is too small to pool. The same scan code
   runs on every path, so none of them can diverge. An armed steal race
   hands packets out in reverse order (deque mode deals the deques in
   reverse, the shared-counter and inline paths reverse the pick) — and
   is output-neutral because merging is by packet index, not by claim
   or steal order. *)
let execute_round t ~sess ~frontier_len ~scan packets =
  let n_packets = Array.length packets in
  let reversed = t.steal_armed && n_packets > 1 in
  let pick i = if reversed then n_packets - 1 - i else i in
  let pooled =
    Domain_pool.domains t.pool > 1
    && n_packets > 1
    && frontier_len >= t.inline_threshold
  in
  (match sess with
  | Some sess when pooled ->
    t.pooled_rounds <- t.pooled_rounds + 1;
    (* deal packet indices round-robin into the per-worker deques; the
       deques are empty here (previous rounds consumed every element) *)
    let d = Array.length t.deques in
    for i = 0 to n_packets - 1 do
      Deque.push t.deques.(i mod d) (pick i)
    done;
    Domain_pool.round sess (steal_worker t ~scan packets)
  | Some _ | None ->
    if pooled then begin
      (* legacy steal-off path: one full pool dispatch per round, all
         workers claiming packets off one shared counter *)
      t.pooled_rounds <- t.pooled_rounds + 1;
      t.dispatches <- t.dispatches + 1;
      let next = Atomic.make 0 in
      Domain_pool.run t.pool (fun _w ->
          let rec claim () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n_packets then begin
              scan packets.(pick i);
              claim ()
            end
          in
          claim ())
    end
    else
      for i = 0 to n_packets - 1 do
        scan packets.(pick i)
      done);
  if reversed then begin
    t.steal_armed <- false;
    t.steal_races <- t.steal_races + 1
  end

(* Slices the current frontier into packets, reusing pooled packet
   records (and their buffers) instead of allocating per round. *)
let packets_for t n =
  let n_packets = (n + t.packet_size - 1) / t.packet_size in
  if Array.length t.packet_pool < n_packets then begin
    let old = t.packet_pool in
    let old_n = Array.length old in
    t.packet_pool <-
      Array.init
        (max n_packets ((2 * old_n) + 4))
        (fun i -> if i < old_n then old.(i) else packet_make ())
  end;
  Array.init n_packets (fun i ->
      let p = t.packet_pool.(i) in
      packet_reset p ~lo:(i * t.packet_size)
        ~hi:(min n ((i + 1) * t.packet_size));
      p)

(* --- the in-use / stale closure scan ------------------------------- *)

(* Scans one packet's slice of [frontier]. Mirrors the per-field code
   of [Trace_common.scan], except that instead of marking and pushing
   discovered targets it records them (marking is the coordinator's
   job at the merge), and poison-word writes, events and note
   application are deferred to the merge too. The only heap words
   written here are owned exclusively by this packet: untouched bits
   and quarantine poisons of its own objects' fields. *)
let scan_packet store ~(config : Collector.mark_config) ~edge_note frontier
    (p : packet) =
  let fields_scanned = ref 0 and untouched_set = ref 0 in
  for k = p.lo to p.hi - 1 do
    let obj = Store.get store frontier.a.(k) in
    let fields = obj.Heap_obj.fields in
    for i = 0 to Array.length fields - 1 do
      let w = fields.(i) in
      if not (Word.is_null w) then begin
        incr fields_scanned;
        if not (Word.poisoned w) then begin
          let w =
            if config.Collector.set_untouched_bits && not (Word.untouched w)
            then begin
              let w' = Word.set_untouched w in
              fields.(i) <- w';
              incr untouched_set;
              w'
            end
            else w
          in
          let tgt = Store.find store (Word.target w) in
          if tgt == Store.sentinel then begin
            buf_push p.quar (Word.target w);
            fields.(i) <- Word.poison w
          end
          else begin
            let edge = { Collector.src = obj; field = i; tgt } in
            (match edge_note with
            | None -> ()
            | Some note -> (
              match note edge with
              | None -> ()
              | Some triple -> p.notes <- triple :: p.notes));
            let action =
              match config.Collector.edge_filter with
              | None -> Collector.Trace
              | Some filter -> filter edge
            in
            match action with
            | Collector.Trace ->
              if not (Header.marked tgt.Heap_obj.header) then begin
                buf_push p.disc tgt.Heap_obj.id;
                p.seal <- seal_step p.seal tgt.Heap_obj.id
              end
            | Collector.Defer -> p.deferred <- edge :: p.deferred
            | Collector.Poison -> p.poisons <- edge :: p.poisons
          end
        end
      end
    done
  done;
  p.fields_scanned <- !fields_scanned;
  p.untouched_set <- !untouched_set

(* Pure recomputation of a packet's discovered-target buffer, used to
   recover a packet whose seal fails verification. Runs before ANY
   packet of the round is merged, so mark bits are still exactly the
   round-start state the worker saw; untouched-bit and quarantine
   writes are already applied (idempotent w.r.t. this scan), poison
   writes are not (they happen at the merge), and the edge filter is
   pure — so the recomputation reproduces the lost buffer exactly. *)
let recompute_disc store ~(config : Collector.mark_config) frontier (p : packet)
    =
  let disc = buf_make 32 in
  for k = p.lo to p.hi - 1 do
    let obj = Store.get store frontier.a.(k) in
    let fields = obj.Heap_obj.fields in
    for i = 0 to Array.length fields - 1 do
      let w = fields.(i) in
      if (not (Word.is_null w)) && not (Word.poisoned w) then
        let tgt = Store.find store (Word.target w) in
        if tgt != Store.sentinel then begin
          let action =
            match config.Collector.edge_filter with
            | None -> Collector.Trace
            | Some filter -> filter { Collector.src = obj; field = i; tgt }
          in
          match action with
          | Collector.Trace ->
            if not (Header.marked tgt.Heap_obj.header) then
              buf_push disc tgt.Heap_obj.id
          | Collector.Defer | Collector.Poison -> ()
        end
    done
  done;
  disc

let verify_seal (p : packet) =
  let s = ref 0 in
  for j = 0 to p.disc.len - 1 do
    s := seal_step !s p.disc.a.(j)
  done;
  !s = p.seal

(* What the coordinator does with a marked-and-merged discovered id.
   In-use claims defer their staleness ticks into the shared
   [Trace_common.tick_batch]; [mark] flushes it after the closure
   finishes, same end-of-phase batching as every other engine. *)
type claim_mode =
  | Claim_mark of Trace_common.tick_batch  (* deferred mark-phase ticks *)
  | Claim_stale of int ref  (* stale closure: stale bit + byte count *)

(* Merges one round's packets in index order: validates (and if needed
   recovers) each discovery buffer first, then applies counter shards,
   flushes buffered events, performs the deferred poison-word writes,
   applies notes, and marks + re-fronts discovered targets. All heap
   mutation that other packets could have observed happens here, on the
   coordinator, between rounds. *)
let merge_round t store ~gc ~(config : Collector.mark_config) ~apply_note
    ~stats ~claim ~deferred_acc frontier next packets =
  (* Injected worker-buffer corruption: scramble the first non-empty
     discovery buffer after its seal was computed. *)
  if t.corrupt_armed then begin
    let n = Array.length packets in
    let rec corrupt i =
      if i < n then
        if packets.(i).disc.len > 0 then begin
          let d = packets.(i).disc in
          for j = 0 to d.len - 1 do
            d.a.(j) <- d.a.(j) + 1
          done;
          t.corrupt_armed <- false
        end
        else corrupt (i + 1)
    in
    corrupt 0
  end;
  (* Validation/recovery pre-pass over every packet, before any merge
     mutates mark state: recovery must see the round-start marks. *)
  Array.iteri
    (fun pi p ->
      if not (verify_seal p) then begin
        let fixed = recompute_disc store ~config frontier p in
        p.disc.a <- fixed.a;
        p.disc.len <- fixed.len;
        t.packet_recoveries <- t.packet_recoveries + 1;
        match config.Collector.events with
        | Some sink ->
          Lp_obs.Sink.emit sink (Lp_obs.Event.Packet_recovered { gc; packet = pi })
        | None -> ()
      end)
    packets;
  Array.iter
    (fun p ->
      stats.Gc_stats.fields_scanned <-
        stats.Gc_stats.fields_scanned + p.fields_scanned;
      stats.Gc_stats.untouched_bits_set <-
        stats.Gc_stats.untouched_bits_set + p.untouched_set;
      stats.Gc_stats.words_quarantined <-
        stats.Gc_stats.words_quarantined + p.quar.len;
      (match config.Collector.events with
      | Some sink ->
        for j = 0 to p.quar.len - 1 do
          Lp_obs.Sink.emit sink
            (Lp_obs.Event.Quarantine { target = p.quar.a.(j) })
        done
      | None -> ());
      List.iter
        (fun (e : Collector.edge) ->
          (match config.Collector.on_poison with
          | Some f -> f e
          | None -> ());
          (match config.Collector.events with
          | Some sink ->
            Lp_obs.Sink.emit sink
              (Lp_obs.Event.Edge_poisoned
                 {
                   src_class = e.src.Heap_obj.class_id;
                   field = e.field;
                   target = e.tgt.Heap_obj.id;
                 })
          | None -> ());
          (* Re-read the word: the worker may have set its untouched
             bit after deciding to poison it. *)
          e.src.Heap_obj.fields.(e.field) <-
            Word.poison e.src.Heap_obj.fields.(e.field);
          stats.Gc_stats.references_poisoned <-
            stats.Gc_stats.references_poisoned + 1)
        (List.rev p.poisons);
      (match apply_note with
      | None -> ()
      | Some f -> List.iter f (List.rev p.notes));
      List.iter
        (fun e ->
          stats.Gc_stats.candidates_enqueued <-
            stats.Gc_stats.candidates_enqueued + 1;
          deferred_acc := e :: !deferred_acc)
        (List.rev p.deferred);
      for j = 0 to p.disc.len - 1 do
        let id = p.disc.a.(j) in
        let obj = Store.get store id in
        if not (Header.marked obj.Heap_obj.header) then begin
          (match claim with
          | Claim_mark batch ->
            obj.Heap_obj.header <- Header.set_marked obj.Heap_obj.header;
            stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
            Trace_common.defer_tick batch ~config obj
          | Claim_stale bytes ->
            obj.Heap_obj.header <-
              Header.set_stale_marked (Header.set_marked obj.Heap_obj.header);
            stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
            Trace_common.tick stats config.Collector.stale_tick_gc obj;
            stats.Gc_stats.stale_closure_objects <-
              stats.Gc_stats.stale_closure_objects + 1;
            bytes := !bytes + obj.Heap_obj.size_bytes);
          buf_push next id
        end
      done)
    packets

(* Per-worker span pairs: work is attributed logically (packet index mod
   domain count), so the figures are identical at every schedule and the
   trace stays byte-stable for a fixed domain count. *)
let emit_worker_spans ~gc ~phase ~events shards =
  match events with
  | None -> ()
  | Some sink ->
    Array.iteri
      (fun w work ->
        Lp_obs.Sink.emit sink
          (Lp_obs.Event.Par_phase_begin { gc; phase; worker = w });
        Lp_obs.Sink.emit sink
          (Lp_obs.Event.Par_phase_end { gc; phase; worker = w; work }))
      shards

(* Real per-worker steal counts for one phase, as worker-id-tagged span
   pairs. Unlike the logical spans above these are genuinely
   schedule-dependent — [Event.deterministic] classifies them as such,
   and every determinism oracle filters them out. Workers with zero
   steals emit nothing, so an untraced-equivalent phase stays silent. *)
let emit_steal_spans t ~gc ~phase ~events =
  match events with
  | None -> ()
  | Some sink ->
    if t.steal then
      Array.iteri
        (fun w n ->
          if n > 0 then begin
            Lp_obs.Sink.emit sink
              (Lp_obs.Event.Par_phase_begin { gc; phase; worker = w });
            Lp_obs.Sink.emit sink
              (Lp_obs.Event.Par_phase_end { gc; phase; worker = w; work = n })
          end)
        t.steal_shards

let reset_steal_shards t =
  Array.fill t.steal_shards 0 (Array.length t.steal_shards) 0

(* Folds the phase's per-worker steal counts into the engine-lifetime
   total; called at each phase end, after the spans are emitted. *)
let harvest_steals t =
  t.steals <- Array.fold_left ( + ) t.steals t.steal_shards

let attribute_work shards packets =
  let d = Array.length shards in
  Array.iteri
    (fun i (p : packet) -> shards.(i mod d) <- shards.(i mod d) + p.fields_scanned)
    packets

(* Drives [do_round] until the frontier is empty, swapping [frontier]
   and [next] between rounds.

   Steal mode enters a pool session lazily: rounds run inline (free)
   until the first one big enough to pool, and that round opens one
   session covering every remaining round of the closure — so a
   closure with n pooled rounds pays ONE dispatch where the legacy
   engine paid n, and a closure that never pools pays zero. *)
let drive t ~do_round frontier next =
  let frontier = ref frontier and next = ref next in
  let d = Domain_pool.domains t.pool in
  let wants_session (f : buf) =
    t.steal && d > 1 && f.len >= t.inline_threshold && f.len > t.packet_size
  in
  let rec rounds sess =
    if !frontier.len > 0 then
      match sess with
      | None when wants_session !frontier ->
        t.dispatches <- t.dispatches + 1;
        Domain_pool.session t.pool (fun s -> rounds (Some s))
      | _ ->
        let f = !frontier in
        do_round sess f !next;
        f.len <- 0;
        let tmp = !frontier in
        frontier := !next;
        next := tmp;
        rounds sess
  in
  rounds None

(* One mark/stale round over frontier [f] into [next].

   In sliced-BSP mode a round's packets are executed and merged in
   groups of at most [slice_budget / packet_size] packets, one pause
   sample per group. The grouped schedule is outcome-identical to the
   whole-round schedule: a later group's scan may see mark bits set by
   an earlier group's merge, but the only consequence is that a target
   already marked is skipped at scan time instead of at the merge's
   [not marked] dedup — the surviving discoveries, their packet-index
   order (and thus the next frontier), every counter (fields_scanned
   counts non-null fields regardless of marks) and all field writes
   (packets only touch their own objects' words, and a frontier object
   belongs to exactly one packet) are unchanged. Seal recovery also
   stays exact: a group's recovery runs after its own scan and before
   its own merge, so it recomputes against precisely the mark state the
   worker saw. *)
let mark_round t store ~gc ~config ~edge_note ~apply_note ~stats ~claim
    ~deferred_acc ~shards sess f next =
  let packets = packets_for t f.len in
  match t.slice_budget with
  | None ->
    execute_round t ~sess ~frontier_len:f.len
      ~scan:(scan_packet store ~config ~edge_note f)
      packets;
    attribute_work shards packets;
    merge_round t store ~gc ~config ~apply_note ~stats ~claim ~deferred_acc f
      next packets
  | Some budget ->
    let group_sz = max 1 (budget / t.packet_size) in
    let n = Array.length packets in
    let start = ref 0 in
    let slice_start = ref (now_ns ()) in
    while !start < n do
      let len = min group_sz (n - !start) in
      let group = Array.sub packets !start len in
      execute_round t ~sess ~frontier_len:f.len
        ~scan:(scan_packet store ~config ~edge_note f)
        group;
      attribute_work shards group;
      merge_round t store ~gc ~config ~apply_note ~stats ~claim ~deferred_acc
        f next group;
      let scanned =
        Array.fold_left (fun acc p -> acc + (p.hi - p.lo)) 0 group
      in
      if scanned > t.max_slice then t.max_slice <- scanned;
      record_pause t Trace_engine.Mark_slice slice_start;
      start := !start + len
    done

let run_closure t store ~gc ~config ~edge_note ~apply_note ~stats ~claim
    ~deferred_acc ~shards frontier =
  drive t
    ~do_round:
      (mark_round t store ~gc ~config ~edge_note ~apply_note ~stats ~claim
         ~deferred_acc ~shards)
    frontier (buf_make 64)

let mark t ~gc ?edge_note ?apply_note store roots ~stats ~config =
  Array.fill t.work_shards 0 (Array.length t.work_shards) 0;
  reset_steal_shards t;
  let frontier = buf_make 256 in
  let batch = t.ticks in
  Trace_common.clear_ticks batch;
  Roots.iter roots (fun id ->
      let obj = Store.get store id in
      if not (Header.marked obj.Heap_obj.header) then begin
        obj.Heap_obj.header <- Header.set_marked obj.Heap_obj.header;
        stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
        Trace_common.defer_tick batch ~config obj;
        buf_push frontier obj.Heap_obj.id
      end);
  let deferred = ref [] in
  run_closure t store ~gc ~config ~edge_note ~apply_note ~stats
    ~claim:(Claim_mark batch) ~deferred_acc:deferred ~shards:t.work_shards
    frontier;
  Trace_common.flush_ticks store stats config.Collector.stale_tick_gc batch;
  emit_worker_spans ~gc ~phase:"mark" ~events:config.Collector.events
    t.work_shards;
  emit_steal_spans t ~gc ~phase:"steal:mark" ~events:config.Collector.events;
  harvest_steals t;
  List.rev !deferred

let begin_stale t =
  Array.fill t.stale_shards 0 (Array.length t.stale_shards) 0;
  reset_steal_shards t

let stale_closure t ~gc ?events store ~stats ~set_untouched_bits ~stale_tick_gc
    (e : Collector.edge) =
  let tgt = e.Collector.tgt in
  if Header.marked tgt.Heap_obj.header then 0
  else begin
    let config =
      {
        Collector.set_untouched_bits;
        stale_tick_gc;
        edge_filter = None;
        on_poison = None;
        events;
      }
    in
    let bytes = ref 0 in
    (* Claim the candidate target itself, exactly like the sequential
       closure's first [claim]. *)
    tgt.Heap_obj.header <-
      Header.set_stale_marked (Header.set_marked tgt.Heap_obj.header);
    stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
    Trace_common.tick stats stale_tick_gc tgt;
    stats.Gc_stats.stale_closure_objects <-
      stats.Gc_stats.stale_closure_objects + 1;
    bytes := !bytes + tgt.Heap_obj.size_bytes;
    let frontier = buf_make 32 in
    buf_push frontier tgt.Heap_obj.id;
    let deferred = ref [] in
    run_closure t store ~gc ~config ~edge_note:None ~apply_note:None ~stats
      ~claim:(Claim_stale bytes) ~deferred_acc:deferred ~shards:t.stale_shards
      frontier;
    !bytes
  end

let end_stale t ~gc ~events =
  emit_worker_spans ~gc ~phase:"stale_closure" ~events t.stale_shards;
  emit_steal_spans t ~gc ~phase:"steal:stale" ~events;
  harvest_steals t

(* --- parallel sweep ------------------------------------------------ *)

let sliced_sweep t store ~stats ~budget =
  let slice_start = ref (now_ns ()) in
  Trace_common.sliced_sweep store ~stats ~seg_slots:budget
    ~on_segment:(fun () ->
      record_pause t Trace_engine.Sweep_slice slice_start)

let sweep t ~gc ?events store ~stats =
  match t.slice_budget with
  (* Sliced mode: the pause bound matters more than sweep parallelism
     (segments swept on the pool would all land inside one pause), so
     sweep bounded segments on the coordinator; the shared helper
     reproduces the sequential free order. *)
  | Some budget -> sliced_sweep t store ~stats ~budget
  | None ->
  let n_slots = Store.slot_count store in
  let d = domains t in
  if d = 1 || n_slots < t.inline_threshold then
    Trace_common.sliced_sweep store ~stats ~seg_slots:n_slots ~on_segment:ignore
  else begin
    Array.fill t.work_shards 0 (Array.length t.work_shards) 0;
    let n_segs = d * 4 in
    let seg_size = (n_slots + n_segs - 1) / n_segs in
    let n_segs = (n_slots + seg_size - 1) / seg_size in
    let dead = Array.make n_segs [] in
    let live_b = Array.make n_segs 0 in
    let scanned = Array.make n_segs 0 in
    let run_seg i =
      let lo = i * seg_size and hi = min n_slots ((i + 1) * seg_size) in
      let d = ref [] and lb = ref 0 and n = ref 0 in
      Store.iter_live_range store ~lo ~hi (fun obj ->
          incr n;
          if Header.marked obj.Heap_obj.header then begin
            obj.Heap_obj.header <- Header.clear_gc_bits obj.Heap_obj.header;
            lb := !lb + obj.Heap_obj.size_bytes
          end
          else d := obj :: !d);
      dead.(i) <- !d;
      live_b.(i) <- !lb;
      scanned.(i) <- !n
    in
    let next = Atomic.make 0 in
    t.pooled_rounds <- t.pooled_rounds + 1;
    t.dispatches <- t.dispatches + 1;
    Domain_pool.run t.pool (fun _w ->
        let rec claim () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n_segs then begin
            run_seg i;
            claim ()
          end
        in
        claim ());
    let live = ref 0 in
    for i = 0 to n_segs - 1 do
      live := !live + live_b.(i);
      t.work_shards.(i mod d) <- t.work_shards.(i mod d) + scanned.(i)
    done;
    (* Segments hold their dead in descending slot order; freeing the
       segments in reverse yields the sequential sweep's overall
       descending free order, keeping [Store] id recycling identical. *)
    for i = n_segs - 1 downto 0 do
      List.iter
        (fun (obj : Heap_obj.t) ->
          stats.Gc_stats.objects_swept <- stats.Gc_stats.objects_swept + 1;
          stats.Gc_stats.bytes_reclaimed <-
            stats.Gc_stats.bytes_reclaimed + obj.Heap_obj.size_bytes;
          Store.free store obj)
        dead.(i)
    done;
    Store.set_live_bytes store !live;
    emit_worker_spans ~gc ~phase:"sweep" ~events t.work_shards
  end

(* --- minor-collection drain ---------------------------------------- *)

(* Nursery packets buffer every field target (plus a per-packet slot
   count including nulls); the coordinator applies the same
   mem/in_nursery/marked test the sequential [consider] does. The
   drain rides [drive] like the mark closure, so a big nursery pays at
   most one pool dispatch under stealing. *)
let minor_drain t store ~queue ~slots_scanned =
  reset_steal_shards t;
  let frontier = buf_make (max (Array.length queue) 1) in
  Array.iter (fun id -> buf_push frontier id) queue;
  let do_round sess (f : buf) next =
    let packets = packets_for t f.len in
    let scan (p : packet) =
      let n = ref 0 in
      for k = p.lo to p.hi - 1 do
        let obj = Store.get store f.a.(k) in
        let fields = obj.Heap_obj.fields in
        for i = 0 to Array.length fields - 1 do
          incr n;
          let w = fields.(i) in
          if (not (Word.is_null w)) && not (Word.poisoned w) then
            buf_push p.disc (Word.target w)
        done
      done;
      p.fields_scanned <- !n
    in
    execute_round t ~sess ~frontier_len:f.len ~scan packets;
    Array.iter
      (fun (p : packet) ->
        slots_scanned := !slots_scanned + p.fields_scanned;
        for j = 0 to p.disc.len - 1 do
          let id = p.disc.a.(j) in
          (* a miss finds the sentinel, which is never in the nursery *)
          let obj = Store.find store id in
          if
            Header.in_nursery obj.Heap_obj.header
            && not (Header.marked obj.Heap_obj.header)
          then begin
            obj.Heap_obj.header <- Header.set_marked obj.Heap_obj.header;
            buf_push next obj.Heap_obj.id
          end
        done)
      packets
  in
  drive t ~do_round frontier (buf_make 64);
  harvest_steals t

(* --- the Trace_engine view ----------------------------------------- *)

let engine t =
  {
    Trace_engine.name =
      (match t.slice_budget with
      | Some _ -> Printf.sprintf "bsp%d" (domains t)
      | None -> Printf.sprintf "par%d" (domains t));
    mark =
      (fun ~gc ?edge_note ?apply_note store roots ~stats ~config ->
        mark t ~gc ?edge_note ?apply_note store roots ~stats ~config);
    begin_stale = (fun () -> begin_stale t);
    stale_closure =
      (fun ~gc ?events store ~stats ~set_untouched_bits ~stale_tick_gc e ->
        stale_closure t ~gc ?events store ~stats ~set_untouched_bits
          ~stale_tick_gc e);
    end_stale = (fun ~gc ~events -> end_stale t ~gc ~events);
    sweep = (fun ~gc ?events store ~stats -> sweep t ~gc ?events store ~stats);
    minor_drain =
      Some
        (fun store ~queue ~slots_scanned ->
          minor_drain t store ~queue ~slots_scanned);
    take_pauses =
      (fun () ->
        let p = List.rev t.pauses in
        t.pauses <- [];
        p);
    max_slice_work = (fun () -> t.max_slice);
    shutdown = (fun () -> Domain_pool.shutdown t.pool);
  }
