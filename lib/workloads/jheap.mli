(** Java-flavoured heap-shape helpers shared by the leak workloads.

    Strings are two objects ([String] header + [char[]] payload), arrays
    are objects whose reference slots are their elements, and linked
    lists are per-workload node classes — the shapes the paper's edge
    table distinguishes (e.g. [java.lang.String -> char[]] is the edge
    type the Individual-references policy wrongly prunes on
    EclipseCP). *)

open Lp_heap
open Lp_runtime

val string_class : string

val alloc_string : Vm.t -> chars:int -> Heap_obj.t
(** A [java.lang.String] whose field 0 references a [char[]] of
    [chars] bytes. The pair is built char-array-first so no unrooted
    object is held across an allocation. *)

val string_length : Vm.t -> Heap_obj.t -> int
(** Reads the backing array (through the barrier, like Java's
    [String.length] reads the [char[]] reference). *)

val alloc_array : Vm.t -> ?class_name:string -> len:int -> unit -> Heap_obj.t
(** An [Object\[\]] with [len] reference slots (class name defaults to
    ["Object[]"]). *)

(** Singly linked lists headed by a field of some holder object. *)
module List_field : sig
  val push :
    Vm.t ->
    node_class:string ->
    holder:Heap_obj.t ->
    field:int ->
    payload:Heap_obj.t option ->
    Heap_obj.t
  (** Allocates a node (field 0 = next, field 1 = payload), links it in
      front of [holder.field] and returns it. The node is rooted in a
      scratch frame while the link is installed. *)

  val iter :
    Vm.t -> holder:Heap_obj.t -> field:int -> (Heap_obj.t -> unit) -> unit
  (** Walks the list reading every [next] reference through the barrier
      (so traversal "uses" every node, clearing staleness), applying the
      function to each node. *)

  val length : Vm.t -> holder:Heap_obj.t -> field:int -> int
end

(** A [java.util.Vector]-like growable array: a holder field references
    the vector object, whose field 0 references the backing [Object\[\]].
    Appending reads the vector and backing references (through barriers)
    but never the elements; growth copies slots with the VM's arraycopy
    intrinsic, which executes no read barriers. Stale elements in a
    vector are therefore individually prunable [Object\[\]] edges — the
    structure behind SwapLeak and the order lists of SPECjbb2000. *)
module Vector : sig
  type t

  val create : Vm.t -> holder:Heap_obj.t -> field:int -> initial_capacity:int -> t

  val add : t -> Heap_obj.t -> unit

  val size : t -> int

  val get : t -> int -> Heap_obj.t option
  (** Barriered read of slot [i] ("processing" the element).
      @raise Lp_core.Errors.Internal_error if the slot was pruned. *)

  val iter : t -> (int -> Heap_obj.t option -> unit) -> unit
  (** Barriered read of every slot in order. *)

  val exchange : t -> t -> unit
  (** Swaps the size/capacity bookkeeping of two vectors whose heap
      references have just been exchanged between their holder fields
      (SwapLeak's swap). *)
end

(** A growable hash table keyed by integer, as MySQL's JDBC statement
    collection: a holder field references the backing [Object\[\]] of
    bucket chains; exceeding the load factor triggers a rehash that
    reads every entry and its payload (the access pattern that keeps
    MySQL's statements live in Section 6). *)
module Hash_table : sig
  type t

  val create : Vm.t -> holder:Heap_obj.t -> field:int -> initial_buckets:int -> t

  val insert : t -> key:int -> payload:Heap_obj.t -> unit
  (** Adds an entry (class ["HashEntry"], fields next/payload). Grows
      and rehashes at load factor 0.75; rehashing reads every entry and
      every entry's payload reference. *)

  val entry_count : t -> int

  val rehash_count : t -> int

  val lookup_sweep : t -> ?touch_payloads_in:int -> stride:int -> offset:int -> unit -> unit
  (** Models the application executing statements: walks every
      [stride]-th bucket chain starting at [offset], reading the bucket
      slot and each entry's next reference (key-equality scans) but
      never the payloads — except in bucket [touch_payloads_in mod
      buckets] (when given), whose payload references are read too.
      Rotating that bucket touches each payload once per table-size
      iterations: the gaps grow with the table, so the observed
      staleness ratchets the edge's [maxstaleuse] up to saturation and
      payloads become permanently protected — the same adaptive
      protection the paper diagnoses on JbbMod's [Object\[\] -> Order]. *)

  val buckets : t -> int
end
