(** Counters, gauges and fixed-bucket histograms.

    Instruments register themselves once (typically at module
    initialization) in a global registry keyed by name; registration is
    idempotent, so two modules asking for the same name share the
    instrument. Updates are lock-free atomics and, like spans, start
    with the {!Probe.enabled} branch — a disabled probe costs one load.

    Hot loops should accumulate locally and publish once per coarse
    operation (e.g. one {!add} per maze-route call, not per pop), which
    keeps atomic contention negligible even with many worker domains. *)

type counter
type gauge
type histogram

val counter : ?help:string -> string -> counter
(** Monotonically increasing integer. Idempotent by name.
    @raise Invalid_argument if the name is registered as another kind. *)

val gauge : ?help:string -> string -> gauge
(** Last-write-wins float value. *)

val histogram : ?help:string -> buckets:float array -> string -> histogram
(** Fixed cumulative bucket upper bounds, strictly increasing; an
    implicit [+Inf] bucket is appended. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

type counter_value = { c_name : string; c_help : string; c_value : int }
type gauge_value = { g_name : string; g_help : string; g_value : float }

type histogram_value = {
  h_name : string;
  h_help : string;
  h_bounds : float array;  (** Upper bounds, without the +Inf bucket. *)
  h_counts : int array;  (** Per-bucket counts, length [bounds + 1]. *)
  h_count : int;
  h_sum : float;
}

type snapshot = {
  counters : counter_value list;
  gauges : gauge_value list;
  histograms : histogram_value list;
}

val snapshot : unit -> snapshot
(** Registration-order listing of every instrument's current value. *)
