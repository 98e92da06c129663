(* Root set: statics, threads, frames. *)

open Lp_heap

let collect_roots roots =
  let acc = ref [] in
  Roots.iter roots (fun id -> acc := id :: !acc);
  List.sort compare !acc

let test_add_static_root () =
  let roots = Roots.create () in
  Roots.add_static_root roots 3;
  Roots.add_static_root roots 9;
  Alcotest.(check (list int)) "both present" [ 3; 9 ] (collect_roots roots)

let test_thread_frames () =
  let roots = Roots.create () in
  let thread = Roots.spawn_thread roots in
  let frame = Roots.push_frame thread ~n_slots:3 in
  Roots.set_slot frame 0 11;
  Roots.set_slot frame 2 12;
  Alcotest.(check (list int)) "non-null slots are roots" [ 11; 12 ]
    (collect_roots roots);
  Roots.clear_slot frame 0;
  Alcotest.(check (list int)) "cleared slot dropped" [ 12 ] (collect_roots roots);
  Roots.pop_frame thread;
  Alcotest.(check (list int)) "popped frame dropped" [] (collect_roots roots)

let test_cannot_pop_initial_frame () =
  let roots = Roots.create () in
  let thread = Roots.spawn_thread roots in
  Alcotest.check_raises "initial frame protected"
    (Invalid_argument "Roots.pop_frame: cannot pop the initial frame") (fun () ->
      Roots.pop_frame thread)

let test_kill_thread () =
  let roots = Roots.create () in
  let thread = Roots.spawn_thread roots in
  let frame = Roots.push_frame thread ~n_slots:1 in
  Roots.set_slot frame 0 42;
  Alcotest.(check (list int)) "rooted while alive" [ 42 ] (collect_roots roots);
  Roots.kill_thread roots thread;
  Alcotest.(check (list int)) "dead thread's stack dropped" [] (collect_roots roots);
  Alcotest.(check bool) "not alive" false (Roots.thread_alive thread);
  (* killing twice is a no-op *)
  Roots.kill_thread roots thread

let test_multiple_threads_pin_independently () =
  let roots = Roots.create () in
  let t1 = Roots.spawn_thread roots in
  let t2 = Roots.spawn_thread roots in
  Roots.set_slot (Roots.push_frame t1 ~n_slots:1) 0 1;
  Roots.set_slot (Roots.push_frame t2 ~n_slots:1) 0 2;
  Alcotest.(check (list int)) "both pinned" [ 1; 2 ] (collect_roots roots);
  Roots.kill_thread roots t1;
  Alcotest.(check (list int)) "t2 survives t1's death" [ 2 ] (collect_roots roots)

let test_root_count () =
  let roots = Roots.create () in
  Roots.add_static_root roots 5;
  let t = Roots.spawn_thread roots in
  let f = Roots.push_frame t ~n_slots:4 in
  Roots.set_slot f 1 6;
  Alcotest.(check int) "count" 2 (Roots.root_count roots)

let suite =
  ( "roots",
    [
      Alcotest.test_case "static roots" `Quick test_add_static_root;
      Alcotest.test_case "thread frames" `Quick test_thread_frames;
      Alcotest.test_case "initial frame protected" `Quick test_cannot_pop_initial_frame;
      Alcotest.test_case "kill thread" `Quick test_kill_thread;
      Alcotest.test_case "independent threads" `Quick test_multiple_threads_pin_independently;
      Alcotest.test_case "root count" `Quick test_root_count;
    ] )
