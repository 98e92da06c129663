type t = {
  config : Config.t;
  mutable state : State_kind.t;
  mutable pruned_once : bool;
  mutable exhaustion_noted : bool;
  mutable gc_seen : int;
  mutable safe_until : int;  (* gc_seen at which SAFE expires *)
  mutable safe_entries : int;
  mutable safe_exits_forced : int;
  mutable history : (int * State_kind.t) list;  (* reverse chronological *)
}

let safe_mode_collections = 8

let create (config : Config.t) =
  let state =
    match config.Config.force_state with
    | Some s -> s
    | None ->
      (match config.Config.policy with
      | Policy.None_ -> State_kind.Inactive
      | Policy.Default | Policy.Most_stale | Policy.Individual_refs ->
        State_kind.Inactive)
  in
  {
    config;
    state;
    pruned_once = false;
    exhaustion_noted = false;
    gc_seen = 0;
    safe_until = 0;
    safe_entries = 0;
    safe_exits_forced = 0;
    history = [ (0, state) ];
  }

let state t = t.state

let has_pruned t = t.pruned_once

let note_prune_performed t = t.pruned_once <- true

let safe_entries t = t.safe_entries

let safe_exits_forced t = t.safe_exits_forced

let in_safe_mode t = t.state = State_kind.Safe

let goto t s =
  if s <> t.state then begin
    t.state <- s;
    t.history <- (t.gc_seen, s) :: t.history
  end

let enter_safe t =
  match t.config.Config.force_state with
  | Some _ -> ()
  | None ->
    if t.state <> State_kind.Safe then begin
      t.safe_entries <- t.safe_entries + 1;
      t.safe_until <- t.gc_seen + safe_mode_collections;
      goto t State_kind.Safe
    end

(* Under option (1) the Select -> Prune move happens the moment the VM is
   about to throw an out-of-memory error, so the very next collection
   prunes. In SAFE, exhaustion is the pressure override: holding the
   pruning moratorium while the program dies of memory starvation would
   be the opposite of graceful, so the machine re-arms SELECT early. *)
let note_exhaustion t =
  t.exhaustion_noted <- true;
  match t.config.Config.force_state with
  | Some _ -> ()
  | None ->
    if t.state = State_kind.Safe then begin
      t.safe_exits_forced <- t.safe_exits_forced + 1;
      goto t State_kind.Select
    end
    else if
      t.state = State_kind.Select
      && t.config.Config.prune_trigger = Config.On_exhaustion
    then goto t State_kind.Prune

let after_gc t ~occupancy =
  t.gc_seen <- t.gc_seen + 1;
  match (t.config.Config.force_state, t.config.Config.policy) with
  | Some _, _ -> ()
  | None, Policy.None_ -> ()
  | None, (Policy.Default | Policy.Most_stale | Policy.Individual_refs) ->
    let nearly_full = occupancy > t.config.Config.nearly_full_threshold in
    (match t.state with
    | State_kind.Inactive ->
      if nearly_full then goto t State_kind.Select
      else if occupancy > t.config.Config.observe_threshold then
        goto t State_kind.Observe
    | State_kind.Observe -> if nearly_full then goto t State_kind.Select
    | State_kind.Select ->
      let advance =
        match t.config.Config.prune_trigger with
        | Config.On_select_gc -> true
        | Config.On_exhaustion -> t.pruned_once || t.exhaustion_noted
      in
      t.exhaustion_noted <- false;
      if advance then goto t State_kind.Prune
    | State_kind.Prune ->
      if nearly_full then goto t State_kind.Select else goto t State_kind.Observe
    | State_kind.Safe ->
      (* the moratorium expires after [safe_mode_collections]
         collections; under pressure it resumes selection directly *)
      if t.gc_seen >= t.safe_until then
        if nearly_full then goto t State_kind.Select
        else goto t State_kind.Observe)

let transitions t = List.rev t.history

type snapshot = {
  snap_state : State_kind.t;
  snap_pruned_once : bool;
  snap_gc_seen : int;
  snap_safe_remaining : int;
  snap_safe_entries : int;
  snap_safe_exits_forced : int;
}

let snapshot t =
  {
    snap_state = t.state;
    snap_pruned_once = t.pruned_once;
    snap_gc_seen = t.gc_seen;
    snap_safe_remaining = max 0 (t.safe_until - t.gc_seen);
    snap_safe_entries = t.safe_entries;
    snap_safe_exits_forced = t.safe_exits_forced;
  }

(* Warm-restart restore. A snapshot taken in [Prune] resumes in [Select]:
   the selected reference set died with the old incarnation, so the
   machine re-selects instead of running a no-op prune collection. The
   restore transition goes through [goto] so it lands in the history. *)
let restore t snap =
  t.pruned_once <- snap.snap_pruned_once;
  t.exhaustion_noted <- false;
  t.gc_seen <- snap.snap_gc_seen;
  t.safe_entries <- snap.snap_safe_entries;
  t.safe_exits_forced <- snap.snap_safe_exits_forced;
  t.safe_until <- snap.snap_gc_seen + snap.snap_safe_remaining;
  match t.config.Config.force_state with
  | Some _ -> ()
  | None ->
    let state =
      match snap.snap_state with
      | State_kind.Prune -> State_kind.Select
      | s -> s
    in
    goto t state
