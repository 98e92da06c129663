(* Controller-brain checkpoints: [Lp_runtime.Frame] frames, as swap
   images are, under a distinct magic so a checkpoint can never be
   confused with a swap image. Decoding is total: any damage surfaces
   as a typed [error], never an exception. *)

open Lp_core
module Frame = Lp_runtime.Frame

let version = 2

let magic1 = 'C'

type error =
  | Torn of { expected_bytes : int; actual_bytes : int }
  | Crc_mismatch
  | Version_unsupported of int
  | Malformed of string

let error_to_string = function
  | Torn { expected_bytes; actual_bytes } ->
    Printf.sprintf "torn (%d of %d bytes)" actual_bytes expected_bytes
  | Crc_mismatch -> "crc-mismatch"
  | Version_unsupported v -> Printf.sprintf "version-unsupported (%d)" v
  | Malformed what -> Printf.sprintf "malformed (%s)" what

(* Payload: ten fixed int32s (four controller counters, six machine
   words), then the length-prefixed edge and pruned-type sections.
   Strings are a length int32 followed by raw bytes. *)

let fixed_words = 10

let string_bytes s = 4 + String.length s

let payload_bytes ~(brain : Controller.brain) =
  (fixed_words * 4)
  + 4
  + List.fold_left
      (fun acc (src, tgt, _) -> acc + string_bytes src + string_bytes tgt + 4)
      0 brain.Controller.brain_edges
  + 4
  + List.fold_left
      (fun acc (src, tgt) -> acc + string_bytes src + string_bytes tgt)
      0 brain.Controller.brain_pruned_types

let encode (brain : Controller.brain) =
  let payload_len = payload_bytes ~brain in
  let buf = Frame.create ~magic1 ~version ~payload_len in
  let off = ref Frame.header_bytes in
  let put_i32 v =
    Bytes.set_int32_le buf !off (Int32.of_int v);
    off := !off + 4
  in
  let put_str s =
    put_i32 (String.length s);
    Bytes.blit_string s 0 buf !off (String.length s);
    off := !off + String.length s
  in
  put_i32 brain.Controller.brain_gc_count;
  put_i32 brain.Controller.brain_mispredictions;
  put_i32 brain.Controller.brain_epoch_mispredictions;
  put_i32 brain.Controller.brain_unproductive_cycles;
  let m = brain.Controller.brain_machine in
  put_i32 (State_kind.to_int m.State_machine.snap_state);
  put_i32 (if m.State_machine.snap_pruned_once then 1 else 0);
  put_i32 m.State_machine.snap_gc_seen;
  put_i32 m.State_machine.snap_safe_remaining;
  put_i32 m.State_machine.snap_safe_entries;
  put_i32 m.State_machine.snap_safe_exits_forced;
  put_i32 (List.length brain.Controller.brain_edges);
  List.iter
    (fun (src, tgt, max_stale_use) ->
      put_str src;
      put_str tgt;
      put_i32 max_stale_use)
    brain.Controller.brain_edges;
  put_i32 (List.length brain.Controller.brain_pruned_types);
  List.iter
    (fun (src, tgt) ->
      put_str src;
      put_str tgt)
    brain.Controller.brain_pruned_types;
  assert (!off = Frame.header_bytes + payload_len);
  Frame.seal buf;
  buf

exception Truncated

let decode buf =
  let len = Bytes.length buf in
  match Frame.check buf ~magic1 ~version ~min_payload:(fixed_words * 4) with
  | Error (Frame.Torn { expected_bytes; actual_bytes }) ->
    Error (Torn { expected_bytes; actual_bytes })
  | Error Frame.Crc_mismatch -> Error Crc_mismatch
  | Error (Frame.Version_unsupported v) -> Error (Version_unsupported v)
  | Ok () ->
    (* CRC holds; structural errors past this point are still
       reported as [Malformed] rather than trusted *)
    let off = ref Frame.header_bytes in
    let get_i32 () =
      if !off + 4 > len then raise Truncated;
      let v = Int32.to_int (Bytes.get_int32_le buf !off) in
      off := !off + 4;
      v
    in
    let get_str () =
      let n = get_i32 () in
      if n < 0 || !off + n > len then raise Truncated;
      let s = Bytes.sub_string buf !off n in
      off := !off + n;
      s
    in
    match
      let brain_gc_count = get_i32 () in
      let brain_mispredictions = get_i32 () in
      let brain_epoch_mispredictions = get_i32 () in
      let brain_unproductive_cycles = get_i32 () in
      let state_tag = get_i32 () in
      let pruned_once = get_i32 () <> 0 in
      let gc_seen = get_i32 () in
      let safe_remaining = get_i32 () in
      let safe_entries = get_i32 () in
      let safe_exits_forced = get_i32 () in
      match State_kind.of_int state_tag with
      | None -> Error (Malformed (Printf.sprintf "state tag %d" state_tag))
      | Some snap_state ->
        let machine =
          {
            State_machine.snap_state;
            snap_pruned_once = pruned_once;
            snap_gc_seen = gc_seen;
            snap_safe_remaining = safe_remaining;
            snap_safe_entries = safe_entries;
            snap_safe_exits_forced = safe_exits_forced;
          }
        in
        let n_edges = get_i32 () in
        if n_edges < 0 then Error (Malformed "edge count")
        else
          let edges =
            List.init n_edges (fun _ ->
                let src = get_str () in
                let tgt = get_str () in
                let msu = get_i32 () in
                (src, tgt, msu))
          in
          let n_pruned = get_i32 () in
          if n_pruned < 0 then Error (Malformed "pruned-type count")
          else
            let pruned =
              List.init n_pruned (fun _ ->
                  let src = get_str () in
                  let tgt = get_str () in
                  (src, tgt))
            in
            if !off <> len then Error (Malformed "trailing bytes")
            else
              Ok
                {
                  Controller.brain_gc_count;
                  brain_mispredictions;
                  brain_epoch_mispredictions;
                  brain_unproductive_cycles;
                  brain_machine = machine;
                  brain_edges = edges;
                  brain_pruned_types = pruned;
                }
    with
    | result -> result
    | exception Truncated -> Error (Malformed "section overruns payload")

let tear buf ~keep =
  if keep < 0 || keep > Bytes.length buf then invalid_arg "Checkpoint.tear";
  Bytes.sub buf 0 keep

let corrupt buf ~pos =
  if pos < 0 || pos >= Bytes.length buf then invalid_arg "Checkpoint.corrupt";
  let out = Bytes.copy buf in
  Bytes.set out pos (Char.chr (Char.code (Bytes.get buf pos) lxor 0x40));
  out
