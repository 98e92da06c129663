open Lp_heap
open Lp_runtime

let tracing = ref false

type totals = {
  read_fast_calls : int;
  read_fast_ns : int;
  read_cold_calls : int;
  read_cold_ns : int;
  read_resurrect_calls : int;
  read_resurrect_ns : int;
  write_calls : int;
  write_ns : int;
  alloc_fast_calls : int;
  alloc_fast_ns : int;
  alloc_gc_calls : int;
  alloc_gc_ns : int;
  gc_count : int;
  gc_ns : int;
  mark_ns : int;
  wall_ns : int;
  request_ns : int;
  requests : int;
}

(* Hot counters live in mutable refs rather than one immutable record so
   the traced fast paths do not allocate. *)
let read_fast_calls = ref 0
let read_fast_ns = ref 0
let read_cold_calls = ref 0
let read_cold_ns = ref 0
let read_resurrect_calls = ref 0
let read_resurrect_ns = ref 0
let write_calls = ref 0
let write_ns = ref 0
let alloc_fast_calls = ref 0
let alloc_fast_ns = ref 0
let alloc_gc_calls = ref 0
let alloc_gc_ns = ref 0
let gc_count = ref 0
let gc_ns = ref 0
let mark_ns = ref 0
let wall_ns = ref 0
let request_ns = ref 0
let latencies : int list ref = ref []
let first_request = ref (-1)

(* Coarse spans: (id, parent, name, start, duration). [open_spans] is
   the stack of enclosing span ids. *)
type span = { id : int; parent : int; name : string; start_ns : int; dur_ns : int }

let spans : span list ref = ref []
let next_span = ref 0
let open_spans : int list ref = ref []
let max_spans = 200_000
let kept = ref 0

let start_span () =
  incr next_span;
  let id = !next_span in
  let parent = match !open_spans with p :: _ -> p | [] -> 0 in
  open_spans := id :: !open_spans;
  (id, parent)

let end_span (id, parent) name start_ns dur_ns =
  open_spans := List.tl !open_spans;
  if !kept < max_spans then begin
    incr kept;
    spans := { id; parent; name; start_ns; dur_ns } :: !spans
  end

let add r d = r := !r + d

(* What an empty span reads: the clock's own cost, included once in
   every timed span. Calibrated at {!reset} and subtracted per span. *)
let bias_ns = ref 0

let calibrate () =
  let d =
    Array.init 4001 (fun _ ->
        let t0 = Clock.now_ns () in
        Clock.now_ns () - t0)
  in
  Array.sort compare d;
  bias_ns := d.(2000)

let elapsed t0 = Clock.now_ns () - t0 - !bias_ns

(* Reads and writes take a few tens of nanoseconds, about what a clock
   read costs, so only one call in [sample_every] is timed (chosen by a
   private LCG, never in step with a program's loop) and its time is
   scaled up; every call is counted. *)
let sample_every = 8
let lcg = ref 1

let sampled () =
  lcg := (!lcg * 1103515245) + 12345;
  (!lcg lsr 16) land (sample_every - 1) = 0

(* Times [f] as a child span of the current one and charges any full
   collections that ran inside it to the collector; [self] receives the
   call's duration minus those collections and whether any ran. *)
let with_collections vm name f self =
  let c = Vm.controller vm in
  let n0 = Vm.gc_count vm
  and g0 = Vm.gc_pause_ns vm
  and m0 = Lp_core.Controller.mark_wall_ns c in
  let t0 = Clock.now_ns () in
  let finish () =
    let d = elapsed t0 in
    let dn = Vm.gc_count vm - n0 and dg = Vm.gc_pause_ns vm - g0 in
    let collected = dn > 0 || dg > 0 in
    if collected then begin
      add gc_count dn;
      add gc_ns dg;
      add mark_ns (Lp_core.Controller.mark_wall_ns c - m0);
      let s = start_span () in
      end_span s name t0 d
    end;
    self (d - dg) collected
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let read vm src i =
  if not !tracing then Mutator.read vm src i
  else
    let w = Mutator.field_word vm src i in
    if not (Word.untouched w) then begin
      incr read_fast_calls;
      if sampled () then begin
        let t0 = Clock.now_ns () in
        let r = Mutator.read vm src i in
        add read_fast_ns (sample_every * elapsed t0);
        r
      end
      else Mutator.read vm src i
    end
    else if Word.poisoned w then
      with_collections vm "mutator.read_resurrect"
        (fun () -> Mutator.read vm src i)
        (fun d _ ->
          incr read_resurrect_calls;
          add read_resurrect_ns d)
    else
      with_collections vm "mutator.read_cold"
        (fun () -> Mutator.read vm src i)
        (fun d _ ->
          incr read_cold_calls;
          add read_cold_ns d)

let write vm src i tgt =
  if not !tracing then Mutator.write vm src i tgt
  else begin
    incr write_calls;
    if sampled () then begin
      let t0 = Clock.now_ns () in
      Mutator.write vm src i tgt;
      add write_ns (sample_every * elapsed t0)
    end
    else Mutator.write vm src i tgt
  end

let alloc vm ~class_id ?scalar_bytes ~n_fields () =
  if not !tracing then Vm.alloc_class vm ~class_id ?scalar_bytes ~n_fields ()
  else
    with_collections vm "vm.alloc_gc"
      (fun () -> Vm.alloc_class vm ~class_id ?scalar_bytes ~n_fields ())
      (fun d collected ->
        if collected then begin
          incr alloc_gc_calls;
          add alloc_gc_ns d
        end
        else begin
          incr alloc_fast_calls;
          add alloc_fast_ns d
        end)

let timed name f on_end =
  let s = start_span () in
  let t0 = Clock.now_ns () in
  let finish () =
    let d = elapsed t0 in
    end_span s name t0 d;
    on_end d
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let block name f = if not !tracing then f () else timed name f (add wall_ns)

let request f =
  if !first_request < 0 then first_request := Clock.now_ns ();
  if not !tracing then f () else timed "fleet.request" f (fun ns ->
        request_ns := !request_ns + ns;
        latencies := ns :: !latencies)

let reset_first_request () = first_request := -1
let first_request_ns () = if !first_request < 0 then None else Some !first_request

let totals () =
  {
    read_fast_calls = !read_fast_calls;
    read_fast_ns = !read_fast_ns;
    read_cold_calls = !read_cold_calls;
    read_cold_ns = !read_cold_ns;
    read_resurrect_calls = !read_resurrect_calls;
    read_resurrect_ns = !read_resurrect_ns;
    write_calls = !write_calls;
    write_ns = !write_ns;
    alloc_fast_calls = !alloc_fast_calls;
    alloc_fast_ns = !alloc_fast_ns;
    alloc_gc_calls = !alloc_gc_calls;
    alloc_gc_ns = !alloc_gc_ns;
    gc_count = !gc_count;
    gc_ns = !gc_ns;
    mark_ns = !mark_ns;
    wall_ns = !wall_ns;
    request_ns = !request_ns;
    requests = List.length !latencies;
  }

let request_latencies () = !latencies

let reset () =
  List.iter
    (fun r -> r := 0)
    [
      read_fast_calls; read_fast_ns; read_cold_calls; read_cold_ns;
      read_resurrect_calls; read_resurrect_ns; write_calls; write_ns;
      alloc_fast_calls; alloc_fast_ns; alloc_gc_calls; alloc_gc_ns; gc_count;
      gc_ns; mark_ns; wall_ns; request_ns; next_span; kept;
    ];
  latencies := [];
  spans := [];
  open_spans := [];
  first_request := -1;
  lcg := 1;
  calibrate ()

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"dur_ns\":%d}\n" s.id
        s.parent s.name s.start_ns s.dur_ns)
    (List.rev !spans);
  close_out oc

