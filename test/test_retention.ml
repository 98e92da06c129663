(* Swap-image retention and its memoised references: a reference
   retention kept here in test code (its own heap scan, every image
   re-decoded from its bytes) must keep exactly the images the VM's
   retention keeps, and the references the swap store memoises must be
   the ones its stored bytes decode to. Also the CRC-32 that guards
   every image. *)

open Lp_heap
open Lp_runtime
module Fault_plan = Lp_fault.Fault_plan

(* ---- CRC-32 ---- *)

(* Bit-at-a-time CRC-32 (reflected 0xEDB88320), no table. *)
let crc32_bitwise buf ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get buf i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_check_value () =
  let buf = Bytes.of_string "123456789" in
  Alcotest.(check int) "standard check value" 0xCBF43926
    (Crc32.of_bytes buf ~pos:0 ~len:9);
  Alcotest.(check int) "empty range" 0 (Crc32.of_bytes buf ~pos:4 ~len:0)

let test_crc32_rejects_bad_ranges () =
  let buf = Bytes.make 8 'x' in
  List.iter
    (fun (pos, len) ->
      match Crc32.of_bytes buf ~pos ~len with
      | _ -> Alcotest.failf "range pos=%d len=%d must be rejected" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 2); (0, 9); (7, 2); (9, 0); (2, -1); (max_int, 1) ]

let prop_crc32_matches_bitwise =
  QCheck.Test.make ~name:"crc32: table loop equals the bitwise reference"
    ~count:300
    QCheck.(triple (string_of_size Gen.(0 -- 300)) small_nat small_nat)
    (fun (s, a, b) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Crc32.of_bytes buf ~pos ~len = crc32_bitwise buf ~pos ~len)

(* Every start offset 0-7 and every length 0-40: each alignment of the
   word loop's unaligned int32 read, and each 0-3-byte tail. *)
let test_crc32_every_alignment () =
  let buf = Bytes.init 48 (fun i -> Char.chr (((i * 151) + 17) land 0xFF)) in
  for pos = 0 to 7 do
    for len = 0 to 40 do
      let got = Crc32.of_bytes buf ~pos ~len
      and want = crc32_bitwise buf ~pos ~len in
      if got <> want then
        Alcotest.failf "pos=%d len=%d: %08x, the bitwise reference %08x" pos
          len got want
    done
  done

let test_crc32_large_buffer () =
  let rand = Random.State.make [| 1 |] in
  let buf = Bytes.init 65_536 (fun _ -> Char.chr (Random.State.int rand 256)) in
  Alcotest.(check int) "64 KiB of random bytes"
    (crc32_bitwise buf ~pos:0 ~len:65_536)
    (Crc32.of_bytes buf ~pos:0 ~len:65_536)

(* ---- Memoised references ---- *)

let targets (img : Swap_image.t) =
  Array.of_list
    (List.filter_map
       (fun (f : Swap_image.field) ->
         if Word.is_null f.Swap_image.word then None
         else Some (Word.target f.Swap_image.word))
       (Array.to_list img.Swap_image.fields))

(* The targets of the non-null reference words [bytes] decode to, or
   [None] when they do not decode. *)
let refs_of_bytes bytes =
  match Swap_image.decode bytes with
  | Error _ -> None
  | Ok img -> Some (targets img)

(* The references the swap store memoised for the image stored under
   [id]; [None] when there is none or its bytes did not validate. *)
let image_refs swap id =
  let memo = ref None in
  Diskswap.iter_images swap (fun ~id:stored ~image:_ ~refs ->
      if stored = id then memo := refs);
  !memo

(* What [Diskswap.iter_image_refs] calls its function on, in order. *)
let iterated_refs swap id =
  let acc = ref [] in
  Diskswap.iter_image_refs swap id (fun r -> acc := r :: !acc);
  Array.of_list (List.rev !acc)

let gen_word =
  QCheck.Gen.(
    frequency
      [
        (2, return Word.null);
        (3, map Word.of_id (1 -- 100_000));
        (2, map (fun id -> Word.poison (Word.of_id id)) (1 -- 100_000));
        (1, map (fun id -> Word.set_untouched (Word.of_id id)) (1 -- 100_000));
      ])

let gen_image =
  QCheck.Gen.(
    map
      (fun ((object_id, class_id, stale, scalar_bytes), fields) ->
        {
          Swap_image.object_id;
          class_id;
          stale;
          scalar_bytes;
          fields =
            Array.of_list
              (List.map
                 (fun (word, referent_class) ->
                   { Swap_image.word; referent_class })
                 fields);
        })
      (pair
         (quad (1 -- 100_000) (0 -- 200) (0 -- 7) (0 -- 64))
         (list_size (0 -- 12) (pair gen_word (-1 -- 200)))))

(* none, a flipped bit at a random offset, a write torn at a random
   length, a version byte other than the format's, or a flipped bit in
   one of the two magic bytes *)
type damage =
  | Intact
  | Flip of int
  | Tear of int
  | Version of int
  | Magic of int * int

let gen_damage =
  QCheck.Gen.(
    frequency
      [
        (2, return Intact);
        (1, map (fun p -> Flip p) (0 -- 500));
        (1, map (fun k -> Tear k) (0 -- 500));
      ])

(* every kind of damage, the prelude's included *)
let gen_any_damage =
  QCheck.Gen.(
    frequency
      [
        (3, return Intact);
        (1, map (fun p -> Flip p) (0 -- 500));
        (1, map (fun k -> Tear k) (0 -- 500));
        ( 1,
          map
            (fun v -> Version v)
            (oneof
               [ 0 -- (Swap_image.version - 1); (Swap_image.version + 1) -- 255 ])
        );
        (1, map2 (fun i b -> Magic (i, b)) (0 -- 1) (0 -- 7));
      ])

let damage bytes = function
  | Intact -> bytes
  | Flip pos -> Swap_image.corrupt bytes ~pos
  | Tear keep -> Swap_image.tear bytes ~keep
  | Version v ->
    let b = Bytes.copy bytes in
    Bytes.set b 2 (Char.chr v);
    b
  | Magic (i, bit) ->
    let b = Bytes.copy bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    b

(* [validate] is [decode] without the image: the same field count on
   success, the same failure otherwise, and the object id read in place
   is the decoded one *)
let prop_validate_matches_decode =
  QCheck.Test.make ~name:"swap image: validate agrees with decode" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_image gen_any_damage))
    (fun (img, d) ->
      let bytes = damage (Swap_image.encode img) d in
      match (Swap_image.validate bytes, Swap_image.decode bytes) with
      | Ok n, Ok decoded ->
        n = Array.length decoded.Swap_image.fields
        && Swap_image.stored_object_id bytes = decoded.Swap_image.object_id
        && (d <> Intact || decoded = img)
      | Error e, Error e' -> e = e' && d <> Intact
      | Ok _, Error _ | Error _, Ok _ -> false)

(* a memo that differs from [refs] by construction: one target
   changed, one dropped, one added, or all of them gone *)
let perturb refs choice =
  let n = Array.length refs in
  match choice mod 4 with
  | 0 when n > 0 ->
    let r = Array.copy refs in
    r.(choice mod n) <- r.(choice mod n) + 1;
    r
  | 1 when n > 0 -> Array.sub refs 0 (n - 1)
  | 2 -> Array.append refs [| 1 + (choice mod 1000) |]
  | _ -> if n > 0 then [||] else [| 7 |]

(* the in-place memo comparison agrees with comparing the decoded
   image's references, for the true memo and for a perturbed one *)
let prop_refs_equal_matches_decode =
  QCheck.Test.make ~name:"swap image: in-place memo check agrees with decode"
    ~count:500
    (QCheck.make QCheck.Gen.(triple gen_image gen_any_damage nat))
    (fun (img, d, choice) ->
      let bytes = damage (Swap_image.encode img) d in
      match Swap_image.decode bytes with
      | Error _ -> true
      | Ok decoded ->
        let refs = targets decoded in
        Swap_image.refs_equal bytes refs
        && not (Swap_image.refs_equal bytes (perturb refs choice)))

let prop_memo_matches_bytes =
  QCheck.Test.make ~name:"diskswap: memoised references equal the decoded bytes"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 6) (pair gen_image gen_damage)))
    (fun images ->
      let swap =
        Diskswap.create (Diskswap.default_config ~disk_limit_bytes:max_int)
      in
      List.iteri
        (fun i (img, d) ->
          (* a few ids repeat, so replacement keeps the memo right too *)
          Diskswap.store_image swap ~id:(1 + (i mod 4))
            (damage (Swap_image.encode img) d))
        images;
      let ok = ref true in
      Diskswap.iter_images swap (fun ~id ~image ~refs ->
          if
            refs <> refs_of_bytes image
            || Option.value refs ~default:[||] <> iterated_refs swap id
          then ok := false);
      (* an intact image's references are the ones it was built from *)
      let last = Hashtbl.create 4 in
      List.iteri
        (fun i (img, d) -> Hashtbl.replace last (1 + (i mod 4)) (img, d))
        images;
      Hashtbl.iter
        (fun id ((img : Swap_image.t), d) ->
          if d = Intact && image_refs swap id <> Some (targets img)
          then ok := false)
        last;
      !ok)

(* ---- Images written from the store ---- *)

(* The record of a live object, read field by field from the store:
   the model [Swap_image.capture]'s bytes are checked against. *)
let record_of_store store id =
  {
    Swap_image.object_id = id;
    class_id = Store.class_of store id;
    stale = Store.stale store id;
    scalar_bytes = Store.scalar_bytes store (Store.get store id);
    fields =
      Array.init (Store.n_fields store id) (fun i ->
          let w = Store.field store id i in
          let live = (not (Word.is_null w)) && Store.mem store (Word.target w) in
          {
            Swap_image.word = w;
            referent_class =
              (if live then Store.class_of store (Word.target w) else -1);
          });
  }

(* A store built from generated steps: objects of 0 to 4 fields; links
   between them, some poisoned; frees, which leave references to dead
   targets; and later allocations, which recycle the freed identifiers
   under other classes and field counts. *)
type store_plan = {
  objects : (int * int * int * int) list;
      (* fields, scalar bytes, stale counter, class *)
  links : (int * int * int * bool) list;  (* source, field, target, poisoned *)
  frees : int list;
  recycled : (int * int) list;  (* fields, class *)
}

let gen_store_plan =
  QCheck.Gen.(
    map
      (fun (objects, links, frees, recycled) ->
        { objects; links; frees; recycled })
      (quad
         (list_size (1 -- 30) (quad (0 -- 4) (0 -- 64) (0 -- 3) (0 -- 20)))
         (list_size (0 -- 80) (quad nat nat nat bool))
         (list_size (0 -- 12) nat)
         (list_size (0 -- 8) (pair (0 -- 4) (0 -- 20)))))

let build_store plan =
  let store = Store.create ~limit_bytes:1_000_000 in
  let objs =
    Array.of_list
      (List.map
         (fun (n_fields, scalar_bytes, stale, class_id) ->
           let o =
             Store.alloc store ~class_id ~n_fields ~scalar_bytes
               ~finalizable:false
           in
           Store.set_stale store (Heap_obj.index o) stale;
           o)
         plan.objects)
  in
  let n = Array.length objs in
  List.iter
    (fun (s, f, tgt, poisoned) ->
      let src = Heap_obj.index objs.(s mod n) in
      let n_fields = Store.n_fields store src in
      if n_fields > 0 then begin
        let w = Word.of_id (Heap_obj.index objs.(tgt mod n)) in
        Store.set_field store src (f mod n_fields)
          (if poisoned then Word.poison w else w)
      end)
    plan.links;
  List.iter
    (fun k ->
      let o = objs.(k mod n) in
      if Store.is_live store o then Store.free store o)
    plan.frees;
  List.iter
    (fun (n_fields, class_id) ->
      ignore
        (Store.alloc store ~class_id ~n_fields ~scalar_bytes:8
           ~finalizable:false))
    plan.recycled;
  store

(* Every live object's image, written from the store, is [encode] of
   its record and decodes back to it; stored through the image-fault
   hook, which damages some of them, its memo is the references of the
   bytes the store kept. *)
let prop_capture_matches_record =
  QCheck.Test.make ~name:"swap image: the store writer equals encode" ~count:300
    (QCheck.make
       QCheck.Gen.(pair gen_store_plan (list_size (1 -- 8) gen_damage)))
    (fun (plan, damages) ->
      let store = build_store plan in
      let swap =
        Diskswap.create (Diskswap.default_config ~disk_limit_bytes:max_int)
      in
      let damages = Array.of_list damages and k = ref 0 in
      Diskswap.set_image_fault_hook swap
        (Some
           (fun bytes ->
             let d = damages.(!k mod Array.length damages) in
             incr k;
             damage bytes d));
      let ok = ref true in
      Store.iter_live store (fun obj ->
          let id = Heap_obj.index obj in
          let record = record_of_store store id in
          let bytes = Swap_image.capture store id in
          if not (Bytes.equal bytes (Swap_image.encode record)) then ok := false;
          if Swap_image.decode bytes <> Ok record then ok := false;
          let d = damages.(!k mod Array.length damages) in
          Diskswap.store_image swap ~id bytes;
          let stored = Option.get (Diskswap.load_image swap id) in
          if image_refs swap id <> refs_of_bytes stored then ok := false;
          if d = Intact && image_refs swap id <> Some (targets record)
          then ok := false);
      !ok)

let sample_image ~id ~targets =
  Swap_image.encode
    {
      Swap_image.object_id = id;
      class_id = 1;
      stale = 2;
      scalar_bytes = 8;
      fields =
        Array.map
          (fun t -> { Swap_image.word = Word.of_id t; referent_class = 1 })
          targets;
    }

let test_memo_follows_drop_and_recovery () =
  let swap = Diskswap.create (Diskswap.default_config ~disk_limit_bytes:max_int) in
  Diskswap.store_image swap ~id:1 (sample_image ~id:1 ~targets:[| 2; 3 |]);
  Diskswap.store_image swap ~id:2 (sample_image ~id:2 ~targets:[| 3 |]);
  Diskswap.store_image swap ~id:3 (sample_image ~id:3 ~targets:[||]);
  Alcotest.(check (option (array int))) "memo of image 1" (Some [| 2; 3 |])
    (image_refs swap 1);
  Diskswap.drop_image swap 2;
  Alcotest.(check (option (array int))) "dropped image has no memo" None
    (image_refs swap 2);
  (* at-rest rot after the write: the stored bytes change under the memo,
     and the recovery audit reads the bytes, not the memo *)
  let rotten = Option.get (Diskswap.load_image swap 1) in
  Bytes.set rotten 20 (Char.chr (Char.code (Bytes.get rotten 20) lxor 0x40));
  let r = Diskswap.recover swap in
  Alcotest.(check int) "one corrupt image found" 1 r.Diskswap.images_corrupt;
  Alcotest.(check int) "one valid image found" 1 r.Diskswap.images_valid;
  Alcotest.(check (option (array int))) "recovery clears the memo" None
    (image_refs swap 3)

(* The strict verifier decodes every image itself: rot that changes an
   image's bytes after the store memoised them is reported. *)
let test_verifier_catches_stale_memo () =
  let vm = Vm.create ~resurrection:true ~heap_bytes:10_000 () in
  let swap = Vm.swap vm in
  Diskswap.store_image swap ~id:7 (sample_image ~id:7 ~targets:[| 1 |]);
  (* nothing references the image, but the verifier runs between
     collections, so retention has not seen it yet *)
  Alcotest.(check bool) "consistent before the rot" true
    (Diagnostics.heap_check ~strict:true vm = Ok ());
  let bytes = Option.get (Diskswap.load_image swap 7) in
  Bytes.set bytes 13 (Char.chr (Char.code (Bytes.get bytes 13) lxor 1));
  match Diagnostics.heap_check ~strict:true vm with
  | Ok () -> Alcotest.fail "a memo that disagrees with the bytes must fail"
  | Error msg ->
    let needle = "memoised references differ" in
    let found = ref false in
    for i = 0 to String.length msg - String.length needle do
      if String.sub msg i (String.length needle) = needle then found := true
    done;
    Alcotest.(check bool) ("reported: " ^ msg) true !found

(* ---- Differential retention ---- *)

(* Every identifier the reference retention reaches: the targets of all
   live poisoned words (a scan of its own over the whole heap), then,
   transitively, the reference words of every reached image, each image
   decoded again from its stored bytes. Forwarded identifiers are
   followed as the VM follows them. *)
let reference_reach vm =
  let swap = Vm.swap vm in
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      Queue.add id queue
    end
  in
  let enqueue id =
    push id;
    match Diskswap.resolve_forward swap id with
    | Some final -> push final
    | None -> ()
  in
  let store = Vm.store vm in
  Store.iter_live store (fun obj ->
      for i = 0 to Store.n_fields store (Heap_obj.index obj) - 1 do
        let w = Store.field store (Heap_obj.index obj) i in
        if (not (Word.is_null w)) && Word.poisoned w then enqueue (Word.target w)
      done);
  while not (Queue.is_empty queue) do
    let bytes = Diskswap.load_image swap (Queue.pop queue) in
    match Option.bind bytes refs_of_bytes with
    | Some refs -> Array.iter enqueue refs
    | None -> ()
  done;
  seen

type coverage = {
  mutable checks : int;
  mutable images_seen : int;
  mutable corrupt_seen : int;
  mutable retention_drops : int;
  mutable resurrections : int;
}

exception Retention_mismatch of string

(* A seeded chaos-style run with resurrection on and the Swap site
   corrupting or tearing image writes. A sink on the swap store sees
   every image drop; the listener consumes the drops of each collection
   and the step loop discards the rest after every step (those are
   resurrections dropping the image they restored, never retention).

   After every collection, with C the images now stored, D the images
   the collection dropped and R what the reference reaches:
   - C is a subset of R: nothing unreachable was kept;
   - no member of D outside C is in R: nothing reachable was dropped.
   Together they say the reference retention, run over the images
   stored before this collection's retention, keeps exactly C: a
   reference walk only enters a dropped image through a reached one,
   so the first dropped image on any path would be in R. *)
let run_seed cov seed =
  let rng = Random.State.make [| 0x7e7a1; seed |] in
  let heap_bytes = 10_240 + (8 * Random.State.int rng 1024) in
  let disk =
    if Random.State.int rng 3 = 0 then
      Some (Diskswap.default_config ~disk_limit_bytes:heap_bytes)
    else None
  in
  let plan =
    Fault_plan.make
      (List.init
         (2 + Random.State.int rng 4)
         (fun _ ->
           {
             Fault_plan.site = Fault_plan.Swap;
             fault =
               (if Random.State.bool rng then Fault_plan.Corrupt_image
                else Fault_plan.Torn_write);
             at = 1 + Random.State.int rng 60;
             repeat = false;
           }))
  in
  let vm = Vm.create ?disk ~resurrection:true ~fault:plan ~heap_bytes () in
  let swap = Vm.swap vm in
  let sink = Lp_obs.Sink.create ~capacity:65_536 ~clock:(fun () -> 0) () in
  Diskswap.set_sink swap (Some sink);
  Vm.set_gc_listener vm
    (Some
       (fun _ ->
         if Lp_obs.Sink.dropped sink > 0 then
           raise (Retention_mismatch "drop log overflowed");
         let dropped =
           List.filter_map
             (fun (st : Lp_obs.Event.stamped) ->
               match st.Lp_obs.Event.ev with
               | Lp_obs.Event.Image_drop { id } -> Some id
               | _ -> None)
             (Lp_obs.Sink.events sink)
         in
         Lp_obs.Sink.clear sink;
         let reach = reference_reach vm in
         cov.checks <- cov.checks + 1;
         cov.retention_drops <- cov.retention_drops + List.length dropped;
         Diskswap.iter_images swap (fun ~id ~image:_ ~refs:_ ->
             cov.images_seen <- cov.images_seen + 1;
             if image_refs swap id = None then
               cov.corrupt_seen <- cov.corrupt_seen + 1;
             if not (Hashtbl.mem reach id) then
               raise
                 (Retention_mismatch
                    (Printf.sprintf "seed %d: image %d kept but unreachable"
                       seed id)));
         List.iter
           (fun id ->
             if (not (Diskswap.has_image swap id)) && Hashtbl.mem reach id then
               raise
                 (Retention_mismatch
                    (Printf.sprintf "seed %d: image %d dropped but reachable"
                       seed id)))
           dropped;
         match Diagnostics.heap_check ~strict:true vm with
         | Ok () -> ()
         | Error msg ->
           raise (Retention_mismatch (Printf.sprintf "seed %d: %s" seed msg))));
  let statics = Vm.statics vm ~class_name:"Roots" ~n_fields:16 in
  let classes = [| ("A", 2, 8); ("B", 3, 16); ("C", 1, 40) |] in
  let leak_class = Vm.register_class vm "Leak" in
  (* the leak chain is dead to the program: reads and writes avoid it,
     or its staleness would never grow enough to be pruned *)
  let random_live () =
    let eligible (obj : Heap_obj.t) =
      Store.class_of (Vm.store vm) (Heap_obj.index obj) <> leak_class
      && obj != statics
      && Store.n_fields (Vm.store vm) (Heap_obj.index obj) > 0
    in
    let n = ref 0 in
    Store.iter_live (Vm.store vm) (fun obj -> if eligible obj then incr n);
    if !n = 0 then None
    else begin
      let k = Random.State.int rng !n and i = ref 0 and found = ref None in
      Store.iter_live (Vm.store vm) (fun obj ->
          if eligible obj then begin
            if !i = k then found := Some obj;
            incr i
          end);
      !found
    end
  in
  let step () =
    match Random.State.int rng 100 with
    | n when n < 25 ->
      let name, n_fields, scalar_bytes =
        classes.(Random.State.int rng (Array.length classes))
      in
      let obj = Vm.alloc vm ~class_name:name ~scalar_bytes ~n_fields () in
      Mutator.write_obj vm statics (Random.State.int rng 15) obj;
      (match random_live () with
      | Some src ->
        Mutator.write_obj vm src
          (Random.State.int rng (Store.n_fields (Vm.store vm) (Heap_obj.index src)))
          obj
      | None -> ())
    | n when n < 55 ->
      (* the leak: a chain the program never reads back *)
      let node = Vm.alloc vm ~class_name:"Leak" ~scalar_bytes:200 ~n_fields:1 () in
      (match Mutator.read vm statics 15 with
      | Some head -> Mutator.write_obj vm node 0 head
      | None -> ());
      Mutator.write_obj vm statics 15 node
    | n when n < 70 -> (
      match random_live () with
      | Some src ->
        ignore
          (Mutator.read vm src
             (Random.State.int rng (Store.n_fields (Vm.store vm) (Heap_obj.index src))))
      | None -> ())
    | n when n < 92 ->
      (* load a pruned reference: resurrection *)
      let found = ref None in
      let store = Vm.store vm in
      Store.iter_live store (fun obj ->
          for i = 0 to Store.n_fields store (Heap_obj.index obj) - 1 do
            if !found = None && Word.poisoned (Store.field store (Heap_obj.index obj) i)
            then found := Some (obj, i)
          done);
      (match !found with
      | Some (src, i) -> ignore (Mutator.read vm src i)
      | None -> ())
    | _ -> Vm.run_gc vm
  in
  (try
     for _ = 1 to 400 do
       (try step () with e when Lp_core.Errors.is_recoverable e -> ());
       Lp_obs.Sink.clear sink
     done
   with e when Lp_core.Errors.is_structured e -> ());
  cov.resurrections <- cov.resurrections + (Vm.stats vm).Gc_stats.resurrections

let test_differential_retention () =
  let cov =
    {
      checks = 0;
      images_seen = 0;
      corrupt_seen = 0;
      retention_drops = 0;
      resurrections = 0;
    }
  in
  (try
     for seed = 1 to 50 do
       run_seed cov seed
     done
   with Retention_mismatch msg -> Alcotest.fail msg);
  (* the sweep must actually exercise what it claims to compare *)
  Alcotest.(check bool)
    (Printf.sprintf "collections checked (%d)" cov.checks)
    true (cov.checks > 500);
  Alcotest.(check bool)
    (Printf.sprintf "images retained across collections (%d)" cov.images_seen)
    true (cov.images_seen > 0);
  Alcotest.(check bool)
    (Printf.sprintf "corrupt or torn images retained (%d)" cov.corrupt_seen)
    true (cov.corrupt_seen > 0);
  Alcotest.(check bool)
    (Printf.sprintf "images dropped by retention (%d)" cov.retention_drops)
    true (cov.retention_drops > 0);
  Alcotest.(check bool)
    (Printf.sprintf "resurrections (%d)" cov.resurrections)
    true (cov.resurrections > 0)

(* ---- The retention memo ----

   A retention pass is skipped when its poisoned-target list and the
   swap store's generation are those of the last pass. The first two
   tests change one of the store's inputs between two collections and
   check that the pass still runs. *)

(* The target of [poisoned_vm]'s poisoned word, never allocated. *)
let pinned = 800_001

(* A resurrection VM whose one statics word is poisoned towards
   [pinned]. *)
let poisoned_vm () =
  let vm = Vm.create ~resurrection:true ~heap_bytes:10_000 () in
  let pin = Vm.statics vm ~class_name:"Pin" ~n_fields:1 in
  Store.set_field (Vm.store vm) (Heap_obj.index pin) 0 (Word.poison (Word.of_id pinned));
  vm

let store_blank swap id =
  Diskswap.store_image swap ~id (sample_image ~id ~targets:[||])

let check_images vm expected =
  let ids = ref [] in
  Diskswap.iter_images (Vm.swap vm) (fun ~id ~image:_ ~refs:_ ->
      ids := id :: !ids);
  Alcotest.(check (list int)) "stored images" expected (List.sort compare !ids)

(* An image no poisoned word reaches, stored between two collections
   whose poisoned words do not change, is dropped by the next one; the
   poisoned word's image stays. *)
let test_memo_sees_stored_image () =
  let vm = poisoned_vm () in
  let swap = Vm.swap vm in
  store_blank swap pinned;
  Vm.run_gc vm;
  Vm.run_gc vm;
  check_images vm [ pinned ];
  store_blank swap 900_001;
  Vm.run_gc vm;
  check_images vm [ pinned ]

(* A forward re-pointed between two such collections: the image only
   the old forward reached is dropped by the next one. *)
let test_memo_sees_forward () =
  let vm = poisoned_vm () in
  let swap = Vm.swap vm in
  List.iter (store_blank swap) [ pinned; 800_002 ];
  Diskswap.forward swap ~old_id:pinned ~new_id:800_002;
  Vm.run_gc vm;
  Vm.run_gc vm;
  check_images vm [ pinned; 800_002 ];
  Diskswap.forward swap ~old_id:pinned ~new_id:800_003;
  Vm.run_gc vm;
  check_images vm [ pinned ]

(* Every write to the images or the forwards moves the generation; reads
   and a drop of an absent image do not. *)
let test_generation_moves_on_writes () =
  let swap = Diskswap.create (Diskswap.default_config ~disk_limit_bytes:max_int) in
  let moves name expected f =
    let before = Diskswap.generation swap in
    f ();
    Alcotest.(check bool) name expected (Diskswap.generation swap <> before)
  in
  moves "store_image" true (fun () ->
      Diskswap.store_image swap ~id:1 (sample_image ~id:1 ~targets:[| 2 |]));
  moves "store_image (replacing)" true (fun () ->
      Diskswap.store_image swap ~id:1 (sample_image ~id:1 ~targets:[| 3 |]));
  moves "forward" true (fun () -> Diskswap.forward swap ~old_id:1 ~new_id:4);
  moves "load_image" false (fun () -> ignore (Diskswap.load_image swap 1));
  moves "iter_image_refs" false (fun () ->
      Diskswap.iter_image_refs swap 1 ignore);
  moves "has_image" false (fun () -> ignore (Diskswap.has_image swap 1));
  moves "resolve_forward" false (fun () ->
      ignore (Diskswap.resolve_forward swap 1));
  moves "drop_image" true (fun () -> Diskswap.drop_image swap 1);
  moves "drop_image (absent)" false (fun () -> Diskswap.drop_image swap 1);
  moves "recover" true (fun () ->
      ignore (Diskswap.recover swap : Diskswap.recovery))

(* ---- The order of image writes and drops ----

   Image capture walks the dying objects breadth first from the freshly
   pruned targets and the live poisoned words; the order it stores
   images in fixes the order of [Image_capture] events and which write
   an injected swap fault lands on. Retention drops the images it does
   not keep in ascending id order. The two sequences are pinned as two
   MD5s, taken over the traces of the 50 chaos seeds and of a leak whose
   pruned nodes each hold a small shared tree (where a walk in any other
   order stores the same images in another order); the capture pin also
   covers the bytes of every image stored after each of the leak's
   collections. *)

let image_event ~captures ~drops (st : Lp_obs.Event.stamped) =
  match st.Lp_obs.Event.ev with
  | Lp_obs.Event.Image_capture { id; bytes } ->
    Buffer.add_string captures (Printf.sprintf "c%d:%d;" id bytes)
  | Lp_obs.Event.Image_drop { id } ->
    Buffer.add_string drops (Printf.sprintf "d%d;" id)
  | _ -> ()

(* A leak of nodes the program never reads back, each holding a tree of
   three levels whose leaves are shared between siblings; every fifth
   step reads the first poisoned word it finds (a resurrection), and the
   Swap site tears or corrupts a few image writes. *)
let tree_leak_events ~captures ~drops =
  let plan =
    Fault_plan.make
      (List.map
         (fun (fault, at) ->
           { Fault_plan.site = Fault_plan.Swap; fault; at; repeat = false })
         [
           (Fault_plan.Torn_write, 7);
           (Fault_plan.Corrupt_image, 23);
           (Fault_plan.Torn_write, 61);
           (Fault_plan.Corrupt_image, 140);
         ])
  in
  let vm =
    Vm.create ~resurrection:true ~fault:plan ~heap_bytes:60_000 ()
  in
  let swap = Vm.swap vm in
  let sink = Lp_obs.Sink.create ~capacity:1_000_000 ~clock:(fun () -> 0) () in
  Diskswap.set_sink swap (Some sink);
  Vm.set_gc_listener vm
    (Some
       (fun _ ->
         let images = ref [] in
         Diskswap.iter_images swap (fun ~id ~image ~refs:_ ->
             images := (id, Digest.to_hex (Digest.bytes image)) :: !images);
         List.iter
           (fun (id, d) ->
             Buffer.add_string captures (Printf.sprintf "i%d:%s;" id d))
           (List.sort compare !images);
         Buffer.add_char captures '|'));
  let statics = Vm.statics vm ~class_name:"Roots" ~n_fields:1 in
  let node () = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:24 ~n_fields:3 () in
  let leaf () = Vm.alloc vm ~class_name:"Leaf" ~scalar_bytes:8 ~n_fields:1 () in
  let step k =
    Vm.with_frame vm ~n_slots:5 @@ fun frame ->
    let rooted slot obj =
      Roots.set_slot frame slot (Heap_obj.index obj);
      obj
    in
    let head = rooted 0 (node ()) in
    let a = rooted 1 (node ()) in
    let b = rooted 2 (node ()) in
    let x = rooted 3 (leaf ()) in
    let y = rooted 4 (leaf ()) in
    Mutator.write_obj vm x 0 y;
    Mutator.write_obj vm a 0 x;
    Mutator.write_obj vm a 1 y;
    Mutator.write_obj vm b 0 y;
    Mutator.write_obj vm b 2 x;
    Mutator.write_obj vm head 1 a;
    Mutator.write_obj vm head 2 b;
    (match Mutator.read vm statics 0 with
    | Some old -> Mutator.write_obj vm head 0 old
    | None -> ());
    Mutator.write_obj vm statics 0 head;
    if k mod 5 = 0 then begin
      let store = Vm.store vm and found = ref None in
      Store.iter_live store (fun obj ->
          for i = 0 to Store.n_fields store (Heap_obj.index obj) - 1 do
            if !found = None && Word.poisoned (Store.field store (Heap_obj.index obj) i)
            then found := Some (obj, i)
          done);
      match !found with
      | Some (src, i) -> ignore (Mutator.read vm src i)
      | None -> ()
    end
  in
  (try
     for k = 1 to 3_000 do
       try step k with e when Lp_core.Errors.is_recoverable e -> ()
     done
   with e when Lp_core.Errors.is_structured e -> ());
  Alcotest.(check int) "complete trace" 0 (Lp_obs.Sink.dropped sink);
  Lp_obs.Sink.iter sink (image_event ~captures ~drops);
  (Vm.stats vm).Gc_stats.references_poisoned

let capture_events_md5 = "3d8b46609ec237d0c207c39e57f570f4"

let drop_events_md5 = "d8b0594066401762fa22e17622264b82"

(* A retention pass emits nothing but its drops, and every other drop (a
   resurrection's) sits between other events of the trace, so each run
   of consecutive [Image_drop] events holds one pass's drops, or one
   resurrection's. Their ids must be strictly ascending. Returns the
   number of runs of two drops or more. *)
let check_drop_runs ~seed trace =
  let runs = ref 0 in
  ignore
    (List.fold_left
       (fun (prev, len) (st : Lp_obs.Event.stamped) ->
         match st.Lp_obs.Event.ev with
         | Lp_obs.Event.Image_drop { id } ->
           if id <= prev then
             Alcotest.failf "seed %d: image %d dropped after image %d" seed id
               prev;
           if len = 1 then incr runs;
           (id, len + 1)
         | _ -> (0, 0))
       (0, 0) trace
      : int * int);
  !runs

let test_image_event_order () =
  let captures = Buffer.create 65_536 and drops = Buffer.create 65_536 in
  let runs = ref 0 in
  for seed = 1 to 50 do
    let r = Lp_harness.Chaos.run_one ~trace_capacity:1_000_000 ~seed () in
    if r.Lp_harness.Chaos.trace_dropped > 0 then
      Alcotest.failf "seed %d: the chaos trace dropped events" seed;
    runs := !runs + check_drop_runs ~seed r.Lp_harness.Chaos.trace;
    List.iter (image_event ~captures ~drops) r.Lp_harness.Chaos.trace;
    Buffer.add_char captures '#';
    Buffer.add_char drops '#'
  done;
  Alcotest.(check bool) "some pass dropped several images" true (!runs > 0);
  let poisoned = tree_leak_events ~captures ~drops in
  Alcotest.(check bool) "the leak was pruned" true (poisoned > 0);
  Alcotest.(check string) "image writes" capture_events_md5
    (Digest.to_hex (Digest.string (Buffer.contents captures)));
  Alcotest.(check string) "image drops" drop_events_md5
    (Digest.to_hex (Digest.string (Buffer.contents drops)))

let suite =
  ( "retention",
    [
      Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
      Alcotest.test_case "crc32 rejects bad ranges" `Quick
        test_crc32_rejects_bad_ranges;
      QCheck_alcotest.to_alcotest prop_crc32_matches_bitwise;
      QCheck_alcotest.to_alcotest prop_memo_matches_bytes;
      Alcotest.test_case "memo follows drop and recovery" `Quick
        test_memo_follows_drop_and_recovery;
      Alcotest.test_case "verifier catches a stale memo" `Quick
        test_verifier_catches_stale_memo;
      Alcotest.test_case "differential retention over 50 seeds" `Quick
        test_differential_retention;
      QCheck_alcotest.to_alcotest prop_validate_matches_decode;
      QCheck_alcotest.to_alcotest prop_refs_equal_matches_decode;
      Alcotest.test_case "memo: an image stored between collections" `Quick
        test_memo_sees_stored_image;
      Alcotest.test_case "memo: a forward re-pointed between collections"
        `Quick test_memo_sees_forward;
      Alcotest.test_case "diskswap: generation moves on writes only" `Quick
        test_generation_moves_on_writes;
      Alcotest.test_case "image writes and drops keep their order" `Quick
        test_image_event_order;
      QCheck_alcotest.to_alcotest prop_capture_matches_record;
      Alcotest.test_case "crc32: every alignment and tail" `Quick
        test_crc32_every_alignment;
      Alcotest.test_case "crc32: a 64 KiB random buffer" `Quick
        test_crc32_large_buffer;
    ] )
