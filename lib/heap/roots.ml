type frame = { slots : int array }

type thread = {
  mutable frames : frame list;  (* top first; never empty while alive *)
  mutable alive : bool;
}

type t = {
  mutable statics : int list;
  mutable threads : thread list;
}

let create () = { statics = []; threads = [] }

let add_static_root t id =
  if id < 1 then invalid_arg "Roots.add_static_root";
  t.statics <- id :: t.statics

let spawn_thread t =
  let thread = { frames = [ { slots = [||] } ]; alive = true } in
  t.threads <- thread :: t.threads;
  thread

let kill_thread t thread =
  if thread.alive then begin
    thread.alive <- false;
    thread.frames <- [];
    t.threads <- List.filter (fun th -> th != thread) t.threads
  end

let thread_alive thread = thread.alive

let push_frame thread ~n_slots =
  if not thread.alive then invalid_arg "Roots.push_frame: dead thread";
  if n_slots < 0 then invalid_arg "Roots.push_frame";
  let frame = { slots = Array.make n_slots 0 } in
  thread.frames <- frame :: thread.frames;
  frame

let pop_frame thread =
  match thread.frames with
  | [] | [ _ ] -> invalid_arg "Roots.pop_frame: cannot pop the initial frame"
  | _ :: rest -> thread.frames <- rest

let set_slot frame i id = frame.slots.(i) <- id

let get_slot frame i = frame.slots.(i)

let clear_slot frame i = frame.slots.(i) <- 0

let iter t f =
  List.iter f t.statics;
  let visit_frame frame =
    Array.iter (fun id -> if id <> 0 then f id) frame.slots
  in
  let visit_thread thread = List.iter visit_frame thread.frames in
  List.iter visit_thread t.threads

let root_count t =
  let n = ref 0 in
  iter t (fun _ -> incr n);
  !n
