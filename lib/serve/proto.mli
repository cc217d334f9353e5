(** The batch service's wire format: JSON job specs and result records.

    One job is one JSON object on one line (JSON-lines), whether it
    arrives via the spool directory or stdin — see {!Scheduler} for the
    transport. The module also carries the service's tiny self-contained
    JSON reader/printer so the library adds no external dependency.

    {2 Job objects}

    {v
{"id": "night-042", "blif": "designs/alu.blif", "checks": "cheap",
 "deadline_s": 30.0, "k_schedule": [0.0, 0.001, 0.01]}
{"preset": "spla", "scale": 0.05, "seed": 7}
{"workload": {"family": "pla", "seed": 77, "inputs": 8, "outputs": 4,
              "size": 24}}
    v}

    Exactly one of [blif] / [preset] / [workload] selects the input.
    Everything else is optional: [id] (auto-assigned when missing),
    [k_schedule] (default {!Cals_core.Flow.default_k_schedule}; any
    order, finite non-negative entries), [checks] ([off] / [cheap] /
    [full], default [off]), [utilization] (in (0, 1], default 0.55),
    [optimize] (default [false], the aggressive
    SIS-style script), [timing] ([true] for the fitted default weight
    {!Cals_core.Mapper.default_timing_weight}, or a positive number for
    an explicit one — timing-driven covering, with the post-route
    critical path reported in the artifact's metrics),
    [orchestrate] ([true] for the default candidate budget, or a
    positive count — explore AIG pass orderings and build the design on
    the best one), [deadline_s] (default: the scheduler's),
    [scale] / [seed] (presets only). A [workload] job names a synthetic
    {!Cals_verify.Fuzz.params} circuit, so its quarantine reproducer is
    replayable with [cals fuzz --replay]. *)

(** Minimal JSON tree (numbers are floats, like JavaScript's). *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse_json : string -> (json, string) result
(** Strict enough for the protocol: objects, arrays, strings (with the
    standard backslash escapes, including [\uXXXX]), numbers, booleans,
    null. Trailing garbage after the first value is an error. *)

val print_json : json -> string
(** Compact, one line, valid JSON; strings are escaped. *)

val member : string -> json -> json option
(** Field lookup on [Obj]; [None] on anything else. *)

(** Where a job's circuit comes from. *)
type input =
  | Blif of string  (** Path to a BLIF (or [.pla]) file. *)
  | Preset of { name : string; scale : float; seed : int }
      (** A {!Cals_workload.Presets} circuit: ["spla"], ["pdc"] or
          ["too_large"]. *)
  | Workload of Cals_verify.Fuzz.params
      (** A {!Cals_workload.Gen.of_fuzz} circuit — the fuzzer's
          parameter space, reused so quarantined jobs get first-class
          reproducers. *)

type spec = {
  id : string;
  input : input;
  k_schedule : float list option;  (** [None] = the flow's default. *)
  checks : Cals_verify.Check.level;
  utilization : float;
  optimize : bool;
  timing : float option;
      (** Timing weight [T] of the multi-objective match cost; [None] =
          pure Eq. 5 covering. Not part of {!design_key}: the weight is
          per-map-call (see {!Cals_core.Incremental.map}), so timing and
          non-timing jobs share one warmed session. *)
  orchestrate : int option;
      (** Candidate budget for synthesis orchestration
          ({!Cals_core.Flow.orchestrate}) when building the design:
          [Some budget] selects the best of the legacy pipeline plus
          [budget] AIG pass orderings as the cached subject. [true] on
          the wire means {!Cals_logic.Orchestrate.default_budget}.
          Part of {!design_key} — orchestrated and plain jobs must not
          share a session. *)
  deadline_s : float option;  (** [None] = the scheduler's default. *)
}

val design_key : spec -> string
(** Canonical identity of the circuit the job maps — everything that
    determines the subject graph and companion placement (input, scale,
    seed, optimization, utilization) and nothing that does not (id,
    K schedule, checks, deadline). Jobs with equal keys share one
    warmed {!Cals_core.Incremental} session in the scheduler's design
    cache. *)

val spec_of_json : ?default_id:string -> json -> (spec, string) result
val spec_of_string : ?default_id:string -> string -> (spec, string) result
(** Parse one job line. [default_id] names the job when the object has
    no ["id"] field. Unknown fields are ignored (forward
    compatibility); a missing or ambiguous input selector, or a
    malformed field, is an [Error] with a one-line diagnosis. *)

val spec_to_json : spec -> json
(** Round-trips through {!spec_of_json}: explicit fields only. *)
