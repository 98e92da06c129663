(* The Figure 2 state machine. *)

open Lp_core

let machine ?force ?(trigger = Config.On_select_gc) () =
  State_machine.create
    (Config.make ~policy:Policy.Default ~prune_trigger:trigger ?force_state:force ())

let check_state msg expected m =
  Alcotest.(check string) msg
    (State_kind.to_string expected)
    (State_kind.to_string (State_machine.state m))

let test_initial () = check_state "starts inactive" State_kind.Inactive (machine ())

let test_observe_transition () =
  let m = machine () in
  State_machine.after_gc m ~occupancy:0.3;
  check_state "below threshold stays inactive" State_kind.Inactive m;
  State_machine.after_gc m ~occupancy:0.6;
  check_state "above 50% observes" State_kind.Observe m

let test_observe_is_sticky () =
  let m = machine () in
  State_machine.after_gc m ~occupancy:0.6;
  State_machine.after_gc m ~occupancy:0.1;
  check_state "never returns to inactive" State_kind.Observe m

let test_select_and_prune_cycle () =
  let m = machine () in
  State_machine.after_gc m ~occupancy:0.95;
  check_state "nearly full selects (even from inactive)" State_kind.Select m;
  State_machine.after_gc m ~occupancy:0.95;
  check_state "select advances to prune (option 2)" State_kind.Prune m;
  State_machine.note_prune_performed m;
  State_machine.after_gc m ~occupancy:0.95;
  check_state "still nearly full: select more" State_kind.Select m;
  State_machine.after_gc m ~occupancy:0.95;
  State_machine.note_prune_performed m;
  State_machine.after_gc m ~occupancy:0.5;
  check_state "pruning freed enough: back to observe" State_kind.Observe m

let test_exhaustion_trigger () =
  let m = machine ~trigger:Config.On_exhaustion () in
  State_machine.after_gc m ~occupancy:0.95;
  check_state "select" State_kind.Select m;
  State_machine.after_gc m ~occupancy:0.95;
  check_state "option 1 waits for exhaustion" State_kind.Select m;
  State_machine.note_exhaustion m;
  check_state "exhaustion arms prune immediately" State_kind.Prune m;
  State_machine.note_prune_performed m;
  State_machine.after_gc m ~occupancy:0.95;
  check_state "back to select" State_kind.Select m;
  State_machine.after_gc m ~occupancy:0.95;
  check_state "after first prune, select always advances" State_kind.Prune m

(* A PRUNE collection acts on what a SELECT collection selected, so an
   exhaustion that comes before this SELECT episode's first collection
   waits for it. *)
let test_exhaustion_before_select_gc () =
  let m = machine ~trigger:Config.On_exhaustion () in
  State_machine.after_gc m ~occupancy:0.95;
  State_machine.note_exhaustion m;
  check_state "no SELECT collection yet: still select" State_kind.Select m;
  State_machine.after_gc m ~occupancy:0.95;
  check_state "prune right after the SELECT collection" State_kind.Prune m

let test_forced_state_never_moves () =
  let m = machine ~force:State_kind.Select () in
  check_state "starts forced" State_kind.Select m;
  State_machine.after_gc m ~occupancy:0.99;
  State_machine.note_exhaustion m;
  State_machine.after_gc m ~occupancy:0.1;
  check_state "never transitions" State_kind.Select m

let test_none_policy_never_moves () =
  let m =
    State_machine.create (Config.make ~policy:Policy.None_ ())
  in
  State_machine.after_gc m ~occupancy:0.99;
  check_state "disabled pruning stays inactive" State_kind.Inactive m

let test_transition_history () =
  let m = machine () in
  State_machine.after_gc m ~occupancy:0.6;
  State_machine.after_gc m ~occupancy:0.95;
  State_machine.after_gc m ~occupancy:0.95;
  let history = State_machine.transitions m in
  Alcotest.(check (list string))
    "history"
    [ "INACTIVE"; "OBSERVE"; "SELECT"; "PRUNE" ]
    (List.map (fun (_, s) -> State_kind.to_string s) history)

let prop_monotone_engagement =
  (* Under random occupancy sequences, the machine never returns to
     INACTIVE once it has left it. *)
  QCheck.Test.make ~name:"state machine: INACTIVE is never re-entered" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range 0.0 1.0))
    (fun occupancies ->
      let m = machine () in
      let left = ref false in
      let ok = ref true in
      List.iter
        (fun occ ->
          State_machine.after_gc m ~occupancy:occ;
          if State_machine.state m <> State_kind.Inactive then left := true
          else if !left then ok := false)
        occupancies;
      !ok)

let suite =
  ( "state_machine",
    [
      Alcotest.test_case "initial" `Quick test_initial;
      Alcotest.test_case "observe threshold" `Quick test_observe_transition;
      Alcotest.test_case "observe sticky" `Quick test_observe_is_sticky;
      Alcotest.test_case "select/prune cycle" `Quick test_select_and_prune_cycle;
      Alcotest.test_case "exhaustion trigger (option 1)" `Quick test_exhaustion_trigger;
      Alcotest.test_case "exhaustion before a SELECT gc" `Quick
        test_exhaustion_before_select_gc;
      Alcotest.test_case "forced state" `Quick test_forced_state_never_moves;
      Alcotest.test_case "disabled policy" `Quick test_none_policy_never_moves;
      Alcotest.test_case "history" `Quick test_transition_history;
      QCheck_alcotest.to_alcotest prop_monotone_engagement;
    ] )
