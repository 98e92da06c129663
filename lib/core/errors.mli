(** The error protocol of paper Section 2, extended into a full runtime
    error taxonomy.

    When the VM exhausts memory with leak pruning enabled, the
    out-of-memory error is recorded and deferred rather than thrown. If
    the program later reads a pruned (poisoned) reference, the VM throws
    an internal error whose [cause] is the original deferred
    out-of-memory error — mirroring Java's [InternalError] /
    [getCause()] protocol, which the JVM specification permits
    asynchronously at any program point. With the resurrection subsystem
    enabled, the barrier first attempts to restore the pruned object from
    its swap image; only when that recovery fails does the internal error
    surface, now carrying a {!Resurrection_failed} cause that records
    {e why} recovery failed (torn image, checksum mismatch, exhausted
    re-allocation, or no image at all).

    Around that protocol the runtime defines more structured errors:
    {!Out_of_disk}, the raw condition the swap layer reports when disk
    residency exceeds its limit; {!Disk_exhausted}, raised by the
    disk-swap baseline once the VM's bounded retry policy fails to bring
    residency back under the disk limit; and {!Heap_corruption}, raised
    by the read barrier when it meets a reference word that points at no
    live object (a corrupted word); the barrier quarantines the word by
    poisoning it, so the heap stays consistent and later accesses fall
    into the ordinary poisoned path. Everything the runtime can throw at
    a program is one of these exceptions — anything else escaping the VM
    is a bug (the chaos harness enforces exactly that). The swap layer's
    [Diskswap.Out_of_disk] is an {e alias} of {!Out_of_disk}, so the
    compiler — not convention — enforces that claim. *)

exception Out_of_memory of {
  gc_count : int;  (** full-heap collections performed so far *)
  used_bytes : int;
  limit_bytes : int;
}

exception Internal_error of {
  cause : exn;
      (** the averted [Out_of_memory], or — when the barrier attempted
          recovery of the pruned target and failed — a
          {!Resurrection_failed} recording why *)
  src_class : string;
  tgt_class : string;  (** classes of the pruned reference accessed *)
}

exception Disk_exhausted of {
  resident_bytes : int;  (** disk residency when the last retry failed *)
  limit_bytes : int;  (** the configured disk limit *)
  retries : int;  (** degraded re-collections attempted before giving up *)
  gc_count : int;
}

exception Heap_corruption of {
  src_class : string;  (** class of the object holding the corrupt word *)
  field : int;
  target : int;  (** the dangling identifier the word pointed at *)
  gc_count : int;
}

exception Out_of_disk of { resident_bytes : int; limit_bytes : int }
(** The swap store's residency (offload payloads plus retained prune
    images) exceeds the configured disk limit, or an injected disk fault
    fired. The VM's bounded degradation policy catches this and retries;
    only {!Disk_exhausted} escapes to programs. *)

type resurrection_failure =
  | Image_missing
      (** the poisoned word's target has no stored swap image (it died
          outside pruning, or its image was already reclaimed) *)
  | Image_torn of { expected_bytes : int; actual_bytes : int }
      (** the image's length prefix promises more bytes than were
          written — a torn write *)
  | Image_crc_mismatch  (** the image's CRC does not cover its payload *)
  | Image_version_unsupported of int
  | Reallocation_exhausted of { attempts : int; size_bytes : int }
      (** the VM could not find heap room for the resurrected object
          within the bounded re-allocation collections *)

exception Resurrection_failed of {
  target : int;  (** the pruned object the barrier tried to restore *)
  reason : resurrection_failure;
  gc_count : int;
}
(** Never thrown bare by the runtime: it travels as the [cause] of the
    {!Internal_error} raised when barrier-level recovery of a pruned
    access fails. *)

val out_of_memory : gc_count:int -> used_bytes:int -> limit_bytes:int -> exn

val internal_error : cause:exn -> src_class:string -> tgt_class:string -> exn

val disk_exhausted :
  resident_bytes:int -> limit_bytes:int -> retries:int -> gc_count:int -> exn

val heap_corruption :
  src_class:string -> field:int -> target:int -> gc_count:int -> exn

val out_of_disk : resident_bytes:int -> limit_bytes:int -> exn

val resurrection_failed :
  target:int -> reason:resurrection_failure -> gc_count:int -> exn

val resurrection_failure_to_string : resurrection_failure -> string

val label : exn -> string option
(** The taxonomy name of a structured runtime error
    (["OutOfMemoryError"], ["InternalError"], ["DiskExhausted"],
    ["HeapCorruption"], ["OutOfDisk"], ["ResurrectionFailed"]); [None]
    for any other exception. *)

val is_structured : exn -> bool
(** Whether the exception belongs to the runtime's error taxonomy. *)

val tenant_restart_reason : exn -> string option
(** The stable short tag the fleet scheduler stamps into a
    [Tenant_restarted] event when this error escapes a tenant VM and the
    tenant is quarantined and restarted (["oom"], ["disk-exhausted"],
    ["heap-corruption"], ...). [Internal_error] carrying a
    [Resurrection_failed] cause reports ["resurrection"]; [None] for
    exceptions outside the taxonomy (those restart as ["crash"]). *)

val is_recoverable : exn -> bool
(** Whether a program that catches this error can meaningfully continue
    running on the same VM. [Internal_error] (only the pruned structure
    is lost — and with resurrection enabled, maybe not even that) and
    [Heap_corruption] (the corrupt word is quarantined) are recoverable;
    [Out_of_memory], [Out_of_disk] and [Disk_exhausted] mean the
    resource is gone. [Resurrection_failed] is not itself recoverable —
    it only appears as the cause inside a (recoverable)
    [Internal_error]. [false] for exceptions outside the taxonomy. *)
