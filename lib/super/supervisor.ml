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
  mutable checkpoint : bytes option;
}

let create ~warm_limit =
  { warm_limit; restart_rounds = []; checkpoint = None }

let prune_window t ~round =
  t.restart_rounds <-
    List.filter (fun r -> r > round - window_rounds) t.restart_rounds

let on_restart t ~round =
  prune_window t ~round;
  t.restart_rounds <- round :: t.restart_rounds;
  let n = List.length t.restart_rounds in
  if n <= t.warm_limit then Warm
  else if n <= cold_limit then Cold
  else if n <= retire_limit then Cold_extended
  else Retire

let store_checkpoint t frame = t.checkpoint <- Some frame

let checkpoint t = t.checkpoint
