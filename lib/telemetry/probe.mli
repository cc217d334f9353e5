(** Global telemetry switch.

    Every probe in the tree — span enter/exit, counter increments,
    histogram observations — starts with a branch on one {!Atomic.t}
    read through {!enabled}. While the switch is off that branch is the
    *entire* cost of instrumentation, so probes can stay in hot paths
    permanently. calsbench reports what turning collection on costs as
    [trace.overhead]: a traced replay's wall time over an untraced
    one's, minus 1. *)

val enabled : unit -> bool
(** One [Atomic.get]; safe to call from any domain at any rate. *)

val enable : unit -> unit
(** Turn collection on. The first call (re)sets the trace time origin,
    so span timestamps are relative to the moment telemetry started. *)

val disable : unit -> unit
(** Turn collection off. Buffered events and metric values survive and
    can still be exported; they just stop growing. *)

val now_us : unit -> float
(** Microseconds since {!enable} (wall clock). Meaningful only while a
    trace origin exists; returns an absolute epoch value otherwise. *)
