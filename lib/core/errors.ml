exception Out_of_memory of {
  gc_count : int;
  used_bytes : int;
  limit_bytes : int;
}

exception Internal_error of {
  cause : exn;
  src_class : string;
  tgt_class : string;
}

exception Disk_exhausted of {
  resident_bytes : int;
  limit_bytes : int;
  retries : int;
  gc_count : int;
}

exception Heap_corruption of {
  src_class : string;
  field : int;
  target : int;
  gc_count : int;
}

exception Out_of_disk of { resident_bytes : int; limit_bytes : int }

type resurrection_failure =
  | Image_missing
  | Image_torn of { expected_bytes : int; actual_bytes : int }
  | Image_crc_mismatch
  | Image_version_unsupported of int
  | Reallocation_exhausted of { attempts : int; size_bytes : int }

exception Resurrection_failed of {
  target : int;
  reason : resurrection_failure;
  gc_count : int;
}

let out_of_memory ~gc_count ~used_bytes ~limit_bytes =
  Out_of_memory { gc_count; used_bytes; limit_bytes }

let internal_error ~cause ~src_class ~tgt_class =
  Internal_error { cause; src_class; tgt_class }

let disk_exhausted ~resident_bytes ~limit_bytes ~retries ~gc_count =
  Disk_exhausted { resident_bytes; limit_bytes; retries; gc_count }

let heap_corruption ~src_class ~field ~target ~gc_count =
  Heap_corruption { src_class; field; target; gc_count }

let out_of_disk ~resident_bytes ~limit_bytes =
  Out_of_disk { resident_bytes; limit_bytes }

let resurrection_failed ~target ~reason ~gc_count =
  Resurrection_failed { target; reason; gc_count }

let resurrection_failure_to_string = function
  | Image_missing -> "no swap image for the pruned target"
  | Image_torn { expected_bytes; actual_bytes } ->
    Printf.sprintf "torn swap image (%d of %d bytes)" actual_bytes expected_bytes
  | Image_crc_mismatch -> "swap image checksum mismatch"
  | Image_version_unsupported v ->
    Printf.sprintf "unsupported swap image version %d" v
  | Reallocation_exhausted { attempts; size_bytes } ->
    Printf.sprintf "re-allocation of %d bytes failed after %d collection(s)"
      size_bytes attempts

let label = function
  | Out_of_memory _ -> Some "OutOfMemoryError"
  | Internal_error _ -> Some "InternalError"
  | Disk_exhausted _ -> Some "DiskExhausted"
  | Heap_corruption _ -> Some "HeapCorruption"
  | Out_of_disk _ -> Some "OutOfDisk"
  | Resurrection_failed _ -> Some "ResurrectionFailed"
  | _ -> None

let is_structured e = label e <> None

(* Stable short tags for the fleet's per-tenant containment: when a
   structured error escapes a tenant VM, the scheduler quarantines and
   restarts that tenant and stamps the restart event with this reason.
   [Internal_error] unwraps to its cause, so a failed barrier-level
   recovery restarts as "resurrection", not the generic "internal". *)
let rec tenant_restart_reason = function
  | Out_of_memory _ -> Some "oom"
  | Internal_error { cause = Resurrection_failed _ as cause; _ } ->
    tenant_restart_reason cause
  | Internal_error _ -> Some "pruned-access"
  | Disk_exhausted _ -> Some "disk-exhausted"
  | Heap_corruption _ -> Some "heap-corruption"
  | Out_of_disk _ -> Some "out-of-disk"
  | Resurrection_failed _ -> Some "resurrection"
  | _ -> None

let is_recoverable = function
  | Internal_error _ | Heap_corruption _ -> true
  | Out_of_memory _ | Disk_exhausted _ | Out_of_disk _ | Resurrection_failed _
  | _ ->
    false
