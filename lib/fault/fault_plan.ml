type site = Alloc | Disk | Step | Swap | Fleet

type fault =
  | Refuse_alloc
  | Disk_failure
  | Corrupt_word
  | Kill_thread
  | Corrupt_image
  | Torn_write
  | Kill_tenant
  | Disk_pressure
  | Kill_storm
  | Torn_checkpoint

type event = { site : site; fault : fault; at : int; repeat : bool }

type t = {
  events : event list;
  mutable alloc_visits : int;
  mutable disk_visits : int;
  mutable step_visits : int;
  mutable swap_visits : int;
  mutable fleet_visits : int;
  mutable fired_log : (site * int * fault) list;  (* reverse order *)
}

let make events =
  List.iter
    (fun e -> if e.at < 1 then invalid_arg "Fault_plan.make: at must be >= 1")
    events;
  {
    events;
    alloc_visits = 0;
    disk_visits = 0;
    step_visits = 0;
    swap_visits = 0;
    fleet_visits = 0;
    fired_log = [];
  }

let none = make []

(* Faults only make sense at their natural site; [random] respects that
   pairing so a generated plan is always applicable. Slots 7 and 8 once
   drew the parallel engine's mark-site faults. They still consume
   their draws but schedule nothing, so every other event of every
   seed is the one it always was. *)
let random ?(events = 4) ~seed () =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let one () =
    let at = 1 + Random.State.int rng 250 in
    match Random.State.int rng 10 with
    | 0 -> Some { site = Alloc; fault = Refuse_alloc; at; repeat = false }
    | 1 -> Some { site = Alloc; fault = Refuse_alloc; at; repeat = true }
    | 2 -> Some { site = Disk; fault = Disk_failure; at; repeat = false }
    | 3 ->
      Some
        { site = Disk; fault = Disk_failure; at; repeat = Random.State.bool rng }
    | 4 -> Some { site = Step; fault = Corrupt_word; at; repeat = false }
    | 5 -> Some { site = Swap; fault = Corrupt_image; at; repeat = false }
    | 6 -> Some { site = Swap; fault = Torn_write; at; repeat = false }
    | 7 | 8 -> None
    | _ -> Some { site = Step; fault = Kill_thread; at; repeat = false }
  in
  make (List.filter_map Fun.id (List.init events (fun _ -> one ())))

(* Fleet-level chaos: tenant kills and shared-disk-pressure windows,
   scheduled against the [Fleet] site (checked once per scheduler
   round). A separate generator — not folded into [random] — so the
   plans behind the existing single-VM chaos seeds stay byte-identical
   and every historical failing seed still reproduces. *)
let random_fleet ?(events = 3) ~rounds ~seed () =
  let rng = Random.State.make [| 0xF1EE7; seed |] in
  let one () =
    let at = 1 + Random.State.int rng (max 1 rounds) in
    match Random.State.int rng 3 with
    | 0 | 1 -> { site = Fleet; fault = Kill_tenant; at; repeat = false }
    | _ -> { site = Fleet; fault = Disk_pressure; at; repeat = false }
  in
  make (List.init events (fun _ -> one ()))

(* Crash-storm chaos: correlated multi-tenant kills and torn controller
   checkpoints. A third generator with its own seed tag, again so the
   [random] and [random_fleet] streams behind historical seeds stay
   byte-identical. *)
let random_storm ?(events = 4) ~rounds ~seed () =
  let rng = Random.State.make [| 0x570F12; seed |] in
  let one () =
    let at = 1 + Random.State.int rng (max 1 rounds) in
    match Random.State.int rng 3 with
    | 0 | 1 -> { site = Fleet; fault = Kill_storm; at; repeat = false }
    | _ -> { site = Fleet; fault = Torn_checkpoint; at; repeat = false }
  in
  make (List.init events (fun _ -> one ()))

let events t = t.events

let visits t = function
  | Alloc -> t.alloc_visits
  | Disk -> t.disk_visits
  | Step -> t.step_visits
  | Swap -> t.swap_visits
  | Fleet -> t.fleet_visits

let check t site =
  let n =
    match site with
    | Alloc ->
      t.alloc_visits <- t.alloc_visits + 1;
      t.alloc_visits
    | Disk ->
      t.disk_visits <- t.disk_visits + 1;
      t.disk_visits
    | Step ->
      t.step_visits <- t.step_visits + 1;
      t.step_visits
    | Swap ->
      t.swap_visits <- t.swap_visits + 1;
      t.swap_visits
    | Fleet ->
      t.fleet_visits <- t.fleet_visits + 1;
      t.fleet_visits
  in
  let due =
    List.filter_map
      (fun e ->
        if e.site = site && (e.at = n || (e.repeat && n > e.at)) then Some e.fault
        else None)
      t.events
  in
  List.iter (fun f -> t.fired_log <- (site, n, f) :: t.fired_log) due;
  due

let fired t = List.rev t.fired_log

let fired_count t = List.length t.fired_log

let site_to_string = function
  | Alloc -> "alloc"
  | Disk -> "disk"
  | Step -> "step"
  | Swap -> "swap"
  | Fleet -> "fleet"

let fault_to_string = function
  | Refuse_alloc -> "refuse-alloc"
  | Disk_failure -> "disk-failure"
  | Corrupt_word -> "corrupt-word"
  | Kill_thread -> "kill-thread"
  | Corrupt_image -> "corrupt-image"
  | Torn_write -> "torn-write"
  | Kill_tenant -> "kill-tenant"
  | Disk_pressure -> "disk-pressure"
  | Kill_storm -> "kill-storm"
  | Torn_checkpoint -> "torn-checkpoint"

let describe t =
  match t.events with
  | [] -> "no faults scheduled"
  | events ->
    String.concat "; "
      (List.map
         (fun e ->
           Printf.sprintf "%s@%s#%d%s" (fault_to_string e.fault)
             (site_to_string e.site) e.at
             (if e.repeat then "+" else ""))
         events)
