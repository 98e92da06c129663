(* Fleet-level crash-storm breaker: counts DISTINCT tenants that
   restarted within a sliding round window and trips when their share
   of the fleet exceeds the configured per-mille threshold. While open,
   the scheduler pauses serving fleet-wide; after the cooldown the
   caller runs health probes and either resets the breaker or extends
   the pause. *)

type config = {
  window_rounds : int;
  trip_permille : int;
  cooldown_rounds : int;
}

let default = { window_rounds = 8; trip_permille = 500; cooldown_rounds = 4 }

type t = {
  config : config;
  tenants : int;
  mutable restarts : (int * int) list;  (* (round, tenant), reverse *)
  mutable open_until : int option;  (* Some r: paused until round r *)
  mutable trips : int;
}

let create config ~tenants =
  if config.window_rounds < 1 || tenants < 1 then invalid_arg "Breaker.create";
  { config; tenants; restarts = []; open_until = None; trips = 0 }

let prune_window t ~round =
  t.restarts <-
    List.filter (fun (r, _) -> r > round - t.config.window_rounds) t.restarts

let note_restart t ~round ~tenant =
  prune_window t ~round;
  t.restarts <- (round, tenant) :: t.restarts

let distinct_restarted t ~round =
  prune_window t ~round;
  List.length
    (List.sort_uniq compare (List.map (fun (_, tenant) -> tenant) t.restarts))

let is_open t = t.open_until <> None

(* Strict inequality: at the default 500 permille, exactly half the
   fleet restarting does NOT trip — more than half must. *)
let should_trip t ~round =
  (not (is_open t))
  && distinct_restarted t ~round * 1000 > t.config.trip_permille * t.tenants

let trip t ~round =
  t.open_until <- Some (round + t.config.cooldown_rounds);
  t.trips <- t.trips + 1

let cooldown_over t ~round =
  match t.open_until with None -> false | Some until -> round >= until

let extend t ~round = t.open_until <- Some (round + t.config.cooldown_rounds)

(* Closing also clears the window: the restarts that tripped the breaker
   must not immediately re-trip it after a clean bill of health. *)
let reset t =
  t.open_until <- None;
  t.restarts <- []

let trips t = t.trips
