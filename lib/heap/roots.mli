(** The collector root set: statics and thread stacks.

    As in the paper, roots are "registers, stacks, and statics". Static
    fields live in per-class statics objects (allocated by the runtime and
    registered here permanently), so that a reference from a static field
    to the heap is an ordinary object-to-object edge the edge table can
    classify — exactly as in Java, where statics live in [java.lang.Class]
    instances.

    Threads own stacks of frames whose slots hold untagged object
    identifiers. Local-variable reads are not heap reference loads, so
    they carry no read barrier; the collector simply scans every slot of
    every live thread each collection. A thread that never dies (the Mckoi
    leak of Section 6) pins everything its stack references. *)

type t

type thread

type frame

val create : unit -> t

val add_static_root : t -> int -> unit
(** Permanently registers the object with this identifier as a root.
    Given a handle's packed bits ({!Heap_obj.t}'s [id]), it registers
    the handle's index. *)

val spawn_thread : t -> thread
(** Creates a thread with one (empty) initial frame and adds it to the
    root set. *)

val kill_thread : t -> thread -> unit
(** Removes the thread (and all its frames) from the root set. Killing a
    thread twice is a no-op. *)

val thread_alive : thread -> bool

val push_frame : thread -> n_slots:int -> frame

val pop_frame : thread -> unit
(** @raise Invalid_argument when only the initial frame remains. *)

val set_slot : frame -> int -> int -> unit
(** [set_slot f i id] stores object identifier [id] (or 0 for null) in
    slot [i]; given a handle's packed bits, it stores their index. *)

val get_slot : frame -> int -> int

val iter : t -> (int -> unit) -> unit
(** [iter t f] applies [f] to every root object identifier: each static
    root and each non-null stack slot of each live thread. *)

val root_count : t -> int
(** Number of non-null roots currently registered; proportional to the
    collector's root-scanning work. *)
