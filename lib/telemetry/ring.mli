(** Per-domain event ring buffers.

    Each domain that records a span owns one fixed-capacity buffer,
    created lazily through domain-local storage, so the recording path
    takes no lock and shares no cache line with other domains. Buffers
    register themselves in a global list at creation (the only locked
    operation, once per domain), which is how {!collect} later merges
    events from worker domains that may already have exited — e.g.
    spans emitted inside [Cals_util.Pool.map_array] tasks.

    {!collect} and {!clear} must only run while no other domain is
    recording (after the fork/join parallel section has joined); the
    per-domain buffers are not synchronized beyond that contract. *)

type event = {
  name : string;
  cat : string;  (** Pipeline stage family, e.g. ["map"], ["route"]. *)
  meta : string;  (** Freeform detail, e.g. ["K=0.001"]; [""] if none. *)
  ts_us : float;  (** Start, microseconds since the trace origin. *)
  dur_us : float;
  tid : int;  (** Id of the domain that ran the span. *)
  seq : int;  (** Per-domain completion order (0, 1, ...). *)
}

val record :
  name:string -> cat:string -> meta:string -> ts_us:float -> dur_us:float ->
  unit
(** Append a completed span to the calling domain's buffer. *)

val collect : unit -> event list
(** Merge every domain's buffer into one deterministic order: by start
    time, then domain id, then per-domain sequence number. Call only
    from a quiescent point (no concurrent recorder). *)

val dropped : unit -> int
(** Total events discarded across all buffers since the last {!clear}. *)

val clear : unit -> unit
(** Empty every buffer and reset drop counts (buffers stay registered). *)
