(* Per-tenant restart supervision: a sliding-window escalation ladder
   plus storage for the tenant's latest controller checkpoint. Driven
   entirely by scheduler rounds, so decisions are deterministic. *)

type action = Warm | Cold | Cold_extended | Retire

let action_to_string = function
  | Warm -> "warm"
  | Cold -> "cold"
  | Cold_extended -> "cold-extended"
  | Retire -> "retire"

(* The ladder: restarts are counted over the last [window_rounds]
   rounds; past [warm_limit] they boot cold, past [cold_limit] cold with
   extended quarantine, past [retire_limit] the tenant is retired. *)
let window_rounds = 16

let cold_limit = 4

let retire_limit = 6

type t = {
  warm_limit : int;
  mutable restart_rounds : int list;  (* reverse chronological *)
  mutable total_restarts : int;
  mutable retired : bool;
  mutable checkpoint : (int * bytes) option;  (* (round, frame) *)
}

let create ~warm_limit =
  {
    warm_limit;
    restart_rounds = [];
    total_restarts = 0;
    retired = false;
    checkpoint = None;
  }

let prune_window t ~round =
  t.restart_rounds <-
    List.filter (fun r -> r > round - window_rounds) t.restart_rounds

let restarts_in_window t ~round =
  prune_window t ~round;
  List.length t.restart_rounds

let on_restart t ~round =
  prune_window t ~round;
  t.restart_rounds <- round :: t.restart_rounds;
  t.total_restarts <- t.total_restarts + 1;
  let n = List.length t.restart_rounds in
  if n <= t.warm_limit then Warm
  else if n <= cold_limit then Cold
  else if n <= retire_limit then Cold_extended
  else begin
    t.retired <- true;
    Retire
  end

let total_restarts t = t.total_restarts

let retired t = t.retired

let store_checkpoint t ~round frame = t.checkpoint <- Some (round, frame)

let checkpoint t = t.checkpoint
