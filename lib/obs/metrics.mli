(** Metrics registry: named counters, gauges and log-scale histograms,
    with a deterministic snapshot API.

    One registry per VM replaces the ad-hoc stat records the runtime's
    subsystems used to carry: [Gc_stats], the controller and the disk
    swap all publish into the registry, and a snapshot is the single
    consistent view reports and exporters read. Handles ([counter],
    [gauge], ...) are interned by name, so fetching one is cheap and
    idempotent; updating one is a field write. All values are plain
    ints — the simulated runtime has no floating-point metrics. *)

type t

type counter

type gauge

type histogram

val create : unit -> t

(** {2 Counters} *)

val counter : t -> string -> counter
(** Find-or-create by name. *)

val incr : ?by:int -> counter -> unit

val set_counter : counter -> int -> unit
(** Publish an externally maintained cumulative total. *)

val counter_value : counter -> int

(** {2 Gauges} *)

val gauge : t -> string -> gauge

val set_gauge : gauge -> int -> unit

(** {2 Log-scale histograms} *)

val histogram : t -> string -> histogram

val observe : histogram -> int -> unit
(** Values land in power-of-two buckets: bucket 0 holds values [<= 0],
    bucket [k >= 1] holds values in [[2^(k-1), 2^k)]. *)

val bucket_of : int -> int
(** The bucket index {!observe} files a value under (exposed for tests). *)

(** {2 Snapshots} *)

type histogram_view = {
  observations : int;
  sum : int;
  buckets : (int * int) list;  (** (bucket index, count); empty buckets omitted *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * histogram_view) list;
}
(** All association lists are sorted by name, so a snapshot is a
    deterministic function of the registry's contents. *)

val snapshot : t -> snapshot

val find_counter : snapshot -> string -> int option

val to_text : snapshot -> string
(** One line per metric: [counter <name> <value>], [gauge <name> <value>],
    [histogram <name> observations=... sum=... ...]. *)
