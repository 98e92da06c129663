(* Per-tenant restart supervision: a sliding-window escalation ladder
   plus storage for the tenant's latest controller checkpoint. Driven
   entirely by scheduler rounds, so decisions are deterministic. *)

type action = Warm | Cold | Cold_extended | Retire

let action_to_string = function
  | Warm -> "warm"
  | Cold -> "cold"
  | Cold_extended -> "cold-extended"
  | Retire -> "retire"

type config = {
  window_rounds : int;
  warm_limit : int;
  cold_limit : int;
  retire_limit : int;
}

let default =
  { window_rounds = 16; warm_limit = 2; cold_limit = 4; retire_limit = 6 }

type t = {
  config : config;
  mutable restart_rounds : int list;  (* reverse chronological *)
  mutable total_restarts : int;
  mutable retired : bool;
  mutable checkpoint : (int * bytes) option;  (* (round, frame) *)
}

let create config =
  if config.window_rounds < 1 then invalid_arg "Supervisor.create";
  {
    config;
    restart_rounds = [];
    total_restarts = 0;
    retired = false;
    checkpoint = None;
  }

let prune_window t ~round =
  t.restart_rounds <-
    List.filter (fun r -> r > round - t.config.window_rounds) t.restart_rounds

let restarts_in_window t ~round =
  prune_window t ~round;
  List.length t.restart_rounds

let on_restart t ~round =
  prune_window t ~round;
  t.restart_rounds <- round :: t.restart_rounds;
  t.total_restarts <- t.total_restarts + 1;
  let n = List.length t.restart_rounds in
  if n <= t.config.warm_limit then Warm
  else if n <= t.config.cold_limit then Cold
  else if n <= t.config.retire_limit then Cold_extended
  else begin
    t.retired <- true;
    Retire
  end

let total_restarts t = t.total_restarts

let retired t = t.retired

let store_checkpoint t ~round frame = t.checkpoint <- Some (round, frame)

let checkpoint t = t.checkpoint
