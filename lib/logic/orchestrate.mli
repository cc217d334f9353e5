(** Pass-ordering orchestration for the tech-independent front end.

    One fixed script cannot fit every structure: PLA-shaped logic wants
    aggressive sharing, deep control logic wants balancing, and — the
    point of this reproduction — the structure handed to the mapper
    shifts downstream congestion in ways only the K-loop can price. This
    module generates {e candidate} front-end results: the legacy SOP
    pipeline as the baseline, plus AIG pass sequences drawn from
    {!Aig.pass} ({{!Aig.Strash}strash}, rewrite, balance, DCE, CSE,
    constant propagation), each projected onto a subject graph. Scoring
    the candidates through the flow's estimator-pruned K-loop is
    {!Cals_core}'s job ([Flow.orchestrate]); this module owns the search
    space and keeps it deterministic.

    Determinism: the candidate schedule is a pure function of [budget]
    (a curated prefix, then lexicographic enumeration), every {!Aig} pass
    rebuilds in structure-derived order, and candidate evaluation downstream
    derives all seeds from the spec — so repeated runs are bit-identical
    (asserted by the CLI determinism test). *)

type candidate = {
  label : string;  (** ["aig:strash,rewrite,…"] — the pass names. *)
  passes : Aig.pass list;  (** Applied left to right by {!Aig.apply}. *)
}

val default_budget : int
(** Candidate count used when [--orchestrate] is given without a value
    ([8] — the curated schedule). *)

type prepared = {
  label : string;  (** ["baseline"] or the candidate label. *)
  network : Network.t;
      (** The candidate's optimized network — the equivalence-check
          subject and the record of what the front end produced. *)
  subject : Cals_netlist.Subject.t;
      (** What the flow scores: {!Decompose.subject_of_network} for the
          baseline, {!Aig.to_subject} for AIG candidates. *)
  aig_ands : int option;  (** Live AIG nodes; [None] for the baseline. *)
  aig_depth : int option;  (** {!Aig.depth}; [None] for the baseline. *)
}

val subject_gates : Cals_netlist.Subject.t -> int
(** Gate count of a candidate subject — the node guard the flow compares
    against the baseline before spending a K-loop evaluation. *)

val prepare : ?optimize:bool -> budget:int -> Network.t -> prepared list
(** [prepare ~optimize ~budget net] builds the candidate list for [net]:
    element 0 is always the baseline (a copy of [net] through
    {!Optimize.script_area}, or {!Optimize.script_light} when [optimize]
    is [false], decomposed exactly as the plain flow would), followed by
    [budget] scheduled AIG candidates, each running its pass sequence
    on an AIG of the {e optimized} baseline network (AIG restructuring
    composes with, rather than replaces, the algebraic script). [net]
    itself is never mutated. Bumps the [orchestrate_candidates_generated]
    and [orchestrate_aig_nodes_saved] telemetry counters. *)
