(* The 16K-slot closed-hashing edge table, including a model-based
   property against a reference Hashtbl implementation. *)

open Lp_core

let test_empty () =
  let t = Edge_table.create () in
  Alcotest.(check int) "no entries" 0 (Edge_table.entry_count t);
  Alcotest.(check int) "maxstaleuse of absent edge" 0
    (Edge_table.max_stale_use t ~src:1 ~tgt:2);
  Alcotest.(check bool) "no selection" true (Edge_table.select_max_bytes t = None)

let test_sizes () =
  Alcotest.(check int) "16K slots" 16_384 Edge_table.slots;
  Alcotest.(check int) "256KB" 262_144 Edge_table.size_bytes

let test_record_stale_use_max () =
  let t = Edge_table.create () in
  Edge_table.record_stale_use t ~src:3 ~tgt:4 ~stale:2;
  Edge_table.record_stale_use t ~src:3 ~tgt:4 ~stale:5;
  Edge_table.record_stale_use t ~src:3 ~tgt:4 ~stale:3;
  Alcotest.(check int) "all-time max" 5 (Edge_table.max_stale_use t ~src:3 ~tgt:4);
  Alcotest.(check int) "one entry" 1 (Edge_table.entry_count t)

let test_direction_matters () =
  let t = Edge_table.create () in
  Edge_table.record_stale_use t ~src:1 ~tgt:2 ~stale:4;
  Alcotest.(check int) "reverse edge distinct" 0
    (Edge_table.max_stale_use t ~src:2 ~tgt:1)

let test_selection_and_reset () =
  let t = Edge_table.create () in
  Edge_table.add_bytes t ~src:1 ~tgt:2 100;
  Edge_table.add_bytes t ~src:3 ~tgt:4 250;
  Edge_table.add_bytes t ~src:1 ~tgt:2 120;
  (match Edge_table.select_max_bytes t with
  | Some (src, tgt, bytes) ->
    Alcotest.(check (triple int int int)) "max selected" (3, 4, 250) (src, tgt, bytes)
  | None -> Alcotest.fail "expected a selection");
  Edge_table.reset_bytes t;
  Alcotest.(check bool) "reset clears bytes" true (Edge_table.select_max_bytes t = None);
  Alcotest.(check int) "entries never deleted" 2 (Edge_table.entry_count t)

let test_decay () =
  let t = Edge_table.create () in
  Edge_table.record_stale_use t ~src:1 ~tgt:2 ~stale:5;
  Edge_table.record_stale_use t ~src:3 ~tgt:4 ~stale:2;
  Edge_table.decay_max_stale_use t;
  Alcotest.(check int) "5 -> 2" 2 (Edge_table.max_stale_use t ~src:1 ~tgt:2);
  Alcotest.(check int) "2 -> 1" 1 (Edge_table.max_stale_use t ~src:3 ~tgt:4);
  Edge_table.decay_max_stale_use t;
  Edge_table.decay_max_stale_use t;
  Alcotest.(check int) "decays to zero" 0 (Edge_table.max_stale_use t ~src:1 ~tgt:2);
  Alcotest.(check int) "entries survive decay" 2 (Edge_table.entry_count t)

let test_table_full () =
  let t = Edge_table.create () in
  (try
     for i = 0 to Edge_table.slots do
       Edge_table.add_bytes t ~src:i ~tgt:i 1
     done;
     Alcotest.fail "expected Table_full"
   with Edge_table.Table_full -> ());
  Alcotest.(check int) "filled to capacity" Edge_table.slots (Edge_table.entry_count t)

let prop_model_based =
  (* Compare against a Hashtbl reference model under random operation
     sequences. *)
  let op_gen =
    QCheck.Gen.(
      let* src = int_range 0 30 in
      let* tgt = int_range 0 30 in
      let* kind = int_range 0 2 in
      let* v = int_range 1 100 in
      return (kind, src, tgt, v))
  in
  QCheck.Test.make ~name:"edge table: agrees with Hashtbl model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 200) op_gen))
    (fun ops ->
      let t = Edge_table.create () in
      let model : (int * int, int * int) Hashtbl.t = Hashtbl.create 64 in
      let model_get k = Option.value ~default:(0, 0) (Hashtbl.find_opt model k) in
      List.iter
        (fun (kind, src, tgt, v) ->
          let stale_v = 2 + (v mod 6) in
          match kind with
          | 0 ->
            Edge_table.record_stale_use t ~src ~tgt ~stale:stale_v;
            let m, b = model_get (src, tgt) in
            Hashtbl.replace model (src, tgt) (max m stale_v, b)
          | 1 ->
            Edge_table.add_bytes t ~src ~tgt v;
            let m, b = model_get (src, tgt) in
            Hashtbl.replace model (src, tgt) (m, b + v)
          | _ -> ())
        ops;
      Hashtbl.fold
        (fun (src, tgt) (m, b) ok ->
          ok
          && Edge_table.max_stale_use t ~src ~tgt = m
          && Edge_table.bytes_used t ~src ~tgt = b)
        model true
      && Edge_table.entry_count t = Hashtbl.length model)

let prop_selection_is_max =
  QCheck.Test.make ~name:"edge table: selection returns the maximum bytes"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (triple (int_range 0 20) (int_range 0 20) (int_range 1 1000)))
    (fun entries ->
      let t = Edge_table.create () in
      List.iter (fun (src, tgt, b) -> Edge_table.add_bytes t ~src ~tgt b) entries;
      match Edge_table.select_max_bytes t with
      | None -> entries = []
      | Some (_, _, best) ->
        let totals = Hashtbl.create 16 in
        List.iter
          (fun (src, tgt, b) ->
            let cur = Option.value ~default:0 (Hashtbl.find_opt totals (src, tgt)) in
            Hashtbl.replace totals (src, tgt) (cur + b))
          entries;
        Hashtbl.fold (fun _ v acc -> max v acc) totals 0 = best)

(* The fixed-array edge table as it was before the table kept an index
   of its occupied slots: four 16,384-slot arrays allocated up front,
   every walk over all slots. The differential property below holds the
   real table to it. *)
module Reference = struct
  let slots = Edge_table.slots

  type t = {
    src_classes : int array;
    tgt_classes : int array;
    max_stale_uses : int array;
    bytes_useds : int array;
    mutable entries : int;
  }

  let create () =
    {
      src_classes = Array.make slots (-1);
      tgt_classes = Array.make slots (-1);
      max_stale_uses = Array.make slots 0;
      bytes_useds = Array.make slots 0;
      entries = 0;
    }

  let hash ~src ~tgt =
    let h = (src * 0x9E3779B1) lxor (tgt * 0x85EBCA77) in
    (h land max_int) mod slots

  let probe t ~src ~tgt =
    let start = hash ~src ~tgt in
    let rec loop i steps =
      if steps = slots then raise Edge_table.Table_full
      else if t.src_classes.(i) = -1 then `Empty i
      else if t.src_classes.(i) = src && t.tgt_classes.(i) = tgt then `Found i
      else loop ((i + 1) mod slots) (steps + 1)
    in
    loop start 0

  let find_or_add t ~src ~tgt =
    match probe t ~src ~tgt with
    | `Found i -> i
    | `Empty i ->
      t.src_classes.(i) <- src;
      t.tgt_classes.(i) <- tgt;
      t.max_stale_uses.(i) <- 0;
      t.bytes_useds.(i) <- 0;
      t.entries <- t.entries + 1;
      i

  let record_stale_use t ~src ~tgt ~stale =
    let i = find_or_add t ~src ~tgt in
    if stale > t.max_stale_uses.(i) then t.max_stale_uses.(i) <- stale

  let protect t ~src ~tgt ~min_stale_use =
    let i = find_or_add t ~src ~tgt in
    if min_stale_use > t.max_stale_uses.(i) then
      t.max_stale_uses.(i) <- min_stale_use

  let load_entry t ~src ~tgt ~max_stale_use ~bytes_used =
    let i = find_or_add t ~src ~tgt in
    t.max_stale_uses.(i) <- max_stale_use;
    t.bytes_useds.(i) <- bytes_used

  let max_stale_use t ~src ~tgt =
    match probe t ~src ~tgt with `Found i -> t.max_stale_uses.(i) | `Empty _ -> 0

  let add_bytes t ~src ~tgt n =
    let i = find_or_add t ~src ~tgt in
    t.bytes_useds.(i) <- t.bytes_useds.(i) + n

  let bytes_used t ~src ~tgt =
    match probe t ~src ~tgt with `Found i -> t.bytes_useds.(i) | `Empty _ -> 0

  let select_max_bytes t =
    let best = ref None in
    for i = 0 to slots - 1 do
      if t.src_classes.(i) >= 0 && t.bytes_useds.(i) > 0 then begin
        let src = t.src_classes.(i)
        and tgt = t.tgt_classes.(i)
        and bytes = t.bytes_useds.(i) in
        match !best with
        | Some (bsrc, btgt, bbytes)
          when bbytes > bytes || (bbytes = bytes && (bsrc, btgt) <= (src, tgt))
          ->
          ()
        | Some _ | None -> best := Some (src, tgt, bytes)
      end
    done;
    !best

  let reset_bytes t = Array.fill t.bytes_useds 0 slots 0

  let decay_max_stale_use t =
    for i = 0 to slots - 1 do
      if t.src_classes.(i) >= 0 then
        t.max_stale_uses.(i) <- t.max_stale_uses.(i) / 2
    done

  let iter t f =
    for i = 0 to slots - 1 do
      if t.src_classes.(i) >= 0 then
        f ~src:t.src_classes.(i) ~tgt:t.tgt_classes.(i)
          ~max_stale_use:t.max_stale_uses.(i) ~bytes_used:t.bytes_useds.(i)
    done
end

type op =
  | Record of int * int * int
  | Protect of int * int * int
  | Load of int * int * int * int
  | Add of int * int * int
  | Reset
  | Decay
  | Select
  | Fill of int  (* [n] fresh edge types, to reach [Table_full] *)

let show_op = function
  | Record (s, t, v) -> Printf.sprintf "record %d->%d %d" s t v
  | Protect (s, t, v) -> Printf.sprintf "protect %d->%d %d" s t v
  | Load (s, t, m, b) -> Printf.sprintf "load %d->%d %d %d" s t m b
  | Add (s, t, v) -> Printf.sprintf "add %d->%d %d" s t v
  | Reset -> "reset"
  | Decay -> "decay"
  | Select -> "select"
  | Fill n -> Printf.sprintf "fill %d" n

let op_gen =
  QCheck.Gen.(
    let cls = int_range 0 12 in
    frequency
      [
        (4, map3 (fun s t v -> Record (s, t, v)) cls cls (int_range 2 7));
        (2, map3 (fun s t v -> Protect (s, t, v)) cls cls (int_range 0 8));
        ( 1,
          map2
            (fun (s, t) (m, b) -> Load (s, t, m, b))
            (pair cls cls)
            (pair (int_range 0 7) (int_range 0 500)) );
        (4, map3 (fun s t v -> Add (s, t, v)) cls cls (int_range 0 300));
        (1, return Reset);
        (1, return Decay);
        (2, return Select);
        ( 1,
          frequency
            [
              (30, map (fun n -> Fill n) (int_range 0 2_500));
              (1, return (Fill Edge_table.slots));
            ] );
      ])

let entries_of iter t =
  let acc = ref [] in
  iter t (fun ~src ~tgt ~max_stale_use ~bytes_used ->
      acc := (src, tgt, max_stale_use, bytes_used) :: !acc);
  List.rev !acc

let prop_differential =
  QCheck.Test.make
    ~name:"edge table: agrees with the fixed-array reference" ~count:60
    (QCheck.make
       ~print:QCheck.Print.(list show_op)
       QCheck.Gen.(list_size (int_range 0 120) op_gen))
    (fun ops ->
      let t = Edge_table.create () and r = Reference.create () in
      let fresh = ref 1000 in
      (* runs [f] on both tables: both raise [Table_full] or neither,
         and both return the same value *)
      let both f g =
        let a = try Ok (f ()) with Edge_table.Table_full -> Error () in
        let b = try Ok (g ()) with Edge_table.Table_full -> Error () in
        a = b
      in
      let small_keys_agree () =
        let ok = ref true in
        for src = 0 to 12 do
          for tgt = 0 to 12 do
            (* in a full table, looking up an absent key raises *)
            if
              not
                (both
                   (fun () -> Edge_table.max_stale_use t ~src ~tgt)
                   (fun () -> Reference.max_stale_use r ~src ~tgt)
                && both
                     (fun () -> Edge_table.bytes_used t ~src ~tgt)
                     (fun () -> Reference.bytes_used r ~src ~tgt))
            then ok := false
          done
        done;
        !ok
      in
      let step op =
        let agreed =
          match op with
          | Record (src, tgt, stale) ->
            both
              (fun () -> Edge_table.record_stale_use t ~src ~tgt ~stale)
              (fun () -> Reference.record_stale_use r ~src ~tgt ~stale)
          | Protect (src, tgt, min_stale_use) ->
            both
              (fun () -> Edge_table.protect t ~src ~tgt ~min_stale_use)
              (fun () -> Reference.protect r ~src ~tgt ~min_stale_use)
          | Load (src, tgt, max_stale_use, bytes_used) ->
            both
              (fun () ->
                Edge_table.load_entry t ~src ~tgt ~max_stale_use ~bytes_used)
              (fun () ->
                Reference.load_entry r ~src ~tgt ~max_stale_use ~bytes_used)
          | Add (src, tgt, n) ->
            both
              (fun () -> Edge_table.add_bytes t ~src ~tgt n)
              (fun () -> Reference.add_bytes r ~src ~tgt n)
          | Reset ->
            Edge_table.reset_bytes t;
            Reference.reset_bytes r;
            true
          | Decay ->
            Edge_table.decay_max_stale_use t;
            Reference.decay_max_stale_use r;
            true
          | Select -> Edge_table.select_max_bytes t = Reference.select_max_bytes r
          | Fill n ->
            (* the first insert that does not fit ends the fill in both *)
            let fill add =
              let base = !fresh in
              for k = 0 to n - 1 do
                add ~src:(base + k) ~tgt:(base + k) 1
              done
            in
            let agreed =
              both
                (fun () -> fill (Edge_table.add_bytes t))
                (fun () -> fill (Reference.add_bytes r))
            in
            fresh := !fresh + n;
            agreed
        in
        (* lookups of absent keys in a nearly full table probe most of
           it, so per-step lookups and iter sequences are compared while
           the table is small; the final state is compared in full *)
        agreed
        && Edge_table.entry_count t = r.Reference.entries
        && (r.Reference.entries > 300
           || small_keys_agree ()
              && entries_of Edge_table.iter t = entries_of Reference.iter r)
      in
      List.for_all step ops
      && small_keys_agree ()
      && entries_of Edge_table.iter t = entries_of Reference.iter r
      && Edge_table.select_max_bytes t = Reference.select_max_bytes r)

let test_create_is_cheap () =
  let before = Gc.minor_words () in
  let t = Sys.opaque_identity (Edge_table.create ()) in
  let words = Gc.minor_words () -. before in
  ignore t;
  if words >= 64. then
    Alcotest.failf "Edge_table.create allocated %.0f words (limit 64)" words

let suite =
  ( "edge_table",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "paper sizes" `Quick test_sizes;
      Alcotest.test_case "maxstaleuse is all-time max" `Quick test_record_stale_use_max;
      Alcotest.test_case "direction matters" `Quick test_direction_matters;
      Alcotest.test_case "selection and reset" `Quick test_selection_and_reset;
      Alcotest.test_case "decay" `Quick test_decay;
      Alcotest.test_case "table full" `Slow test_table_full;
      QCheck_alcotest.to_alcotest prop_model_based;
      QCheck_alcotest.to_alcotest prop_selection_is_max;
      QCheck_alcotest.to_alcotest prop_differential;
      Alcotest.test_case "create allocates no slot arrays" `Quick
        test_create_is_cheap;
    ] )
