(** Deterministic, seeded fault injection.

    A fault plan schedules faults at {e trigger points} (sites): the
    plan owner calls {!check} every time execution passes a site, and
    the plan answers with the faults due at that visit. Because a plan
    is driven purely by visit counters — never by wall-clock time or
    global randomness — a run that injects faults from a plan is exactly
    reproducible from the seed that built the plan.

    The VM threads plan checks through its slow paths: the store consults
    the [Alloc] site on every allocation, the disk-swap baseline consults
    the [Disk] site on every post-collection disk operation, and the
    chaos harness consults the [Step] site once per workload step (where
    it applies the mutator-level faults: word corruption and thread
    death). *)

type site =
  | Alloc  (** every object allocation in the store *)
  | Disk  (** every post-collection disk-swap operation *)
  | Step  (** every chaos-harness workload step *)
  | Swap  (** every swap-image write (pruned-object serialization) *)
  | Fleet
      (** every fleet scheduler round (the multi-tenant serve loop);
          owned by [Lp_fleet.Fleet], which applies the tenant-kill and
          shared-disk-pressure faults *)

type fault =
  | Refuse_alloc
      (** the store refuses the allocation even though it would fit,
          forcing the VM through its collection slow path *)
  | Disk_failure
      (** the disk-swap operation fails with [Out_of_disk]; scheduled
          once it models a transient I/O failure, repeated it models a
          dead disk *)
  | Corrupt_word
      (** a reference word in a live object is corrupted (poisoned,
          retargeted, or left dangling) *)
  | Kill_thread  (** a mutator thread dies mid-mutation, dropping its frames *)
  | Corrupt_image
      (** the swap image being written suffers at-rest bit rot: a payload
          byte is flipped, so a later load fails its CRC check *)
  | Torn_write
      (** the swap image write is cut short, as if the process died
          mid-write; a later load fails the length check *)
  | Kill_tenant
      (** one tenant VM dies mid-round, as if its process was OOM-killed:
          no clean teardown of its heap, only the crash-consistent swap
          recovery pass runs before the scheduler restarts it *)
  | Disk_pressure
      (** the shared disk backend's free space vanishes for a window of
          scheduler rounds: every tenant's offload admissions are denied
          until the pressure lifts, exercising fleet-wide backpressure *)
  | Kill_storm
      (** a correlated crash: a majority of the fleet's tenants die in
          the same scheduler round, as if one host event took out their
          processes together — the load the crash-storm breaker exists
          to contain *)
  | Torn_checkpoint
      (** the next controller-brain checkpoint write is damaged (torn
          short or bit-flipped), so a later warm restart must detect it
          and fall back to a cold boot *)

type event = {
  site : site;
  fault : fault;
  at : int;  (** fire on the [at]-th visit to [site] (1-based) *)
  repeat : bool;  (** keep firing on every visit from [at] on *)
}

type t

val none : t
(** The empty plan: no site ever faults. *)

val make : event list -> t
(** A plan from an explicit schedule.
    @raise Invalid_argument if any event has [at < 1]. *)

val random : ?events:int -> seed:int -> unit -> t
(** A reproducible plan of up to [events] (default 4) faults drawn
    from a generator seeded with [seed]. The same seed always yields
    the same plan. Each event takes the same draws it always did; two
    of the ten fault kinds the generator draws from are retired and
    schedule nothing, so a plan may hold fewer than [events] faults,
    and every other event of every seed is unchanged. *)

val random_fleet : ?events:int -> rounds:int -> seed:int -> unit -> t
(** A reproducible fleet-level plan of [events] (default 3)
    [Kill_tenant] / [Disk_pressure] faults scheduled within the first
    [rounds] visits to the [Fleet] site. Kept separate from {!random} so
    the single-VM chaos seed space is untouched. *)

val random_storm : ?events:int -> rounds:int -> seed:int -> unit -> t
(** A reproducible crash-storm plan of [events] (default 4)
    [Kill_storm] / [Torn_checkpoint] faults scheduled within the first
    [rounds] visits to the [Fleet] site. A third seed space, disjoint
    from {!random} and {!random_fleet}, so every historical chaos seed
    still reproduces byte-identically. *)

val events : t -> event list

val check : t -> site -> fault list
(** Records one visit to [site] and returns the faults scheduled for
    this visit (usually empty). Fired faults are appended to the
    {!fired} log. *)

val visits : t -> site -> int
(** How many times [site] has been checked so far. *)

val fired : t -> (site * int * fault) list
(** Every fault fired so far as [(site, visit number, fault)], in firing
    order. *)

val fired_count : t -> int

val describe : t -> string
(** One line per scheduled event, for reports. *)
