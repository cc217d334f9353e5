(** And-Inverter Graph: the tech-independent optimization substrate.

    An AIG represents a combinational function as a DAG of 2-input AND
    nodes connected by possibly-complemented edges — the representation
    behind ABC-style synthesis. Complementation is a bit on the edge, not
    a node, so inverters are free; every richer gate is expressed through
    De Morgan ([a OR b = NOT (NOT a AND NOT b)]).

    Construction is {e canonical}: {!mk_and} orders its fanins, folds
    constants, collapses [x AND x] / [x AND NOT x], and (by default)
    hash-conses structurally identical ANDs, so the graph never holds two
    nodes with the same (ordered, phased) fanin pair. The optimization
    {{!pass}passes} rebuild the graph under stronger rule sets — two-level
    rewriting, chain-canonical CSE, delay-oriented balancing — and every
    pass is equivalence-preserving (guarded by the {!Cals_verify.Equiv}
    miter in the test suite).

    Node ids are dense: node [0] is the constant-[false] source, nodes
    [1..num_pis] are the primary inputs, AND nodes follow in topological
    order (fanins always have smaller ids). A {e literal} packs a node id
    and a complement bit; see {!lit}. *)

type t
(** A mutable AIG under construction, plus its outputs. Only {!mk_and},
    {!mk_or} and {!set_output} mutate a graph. The passes return a rebuilt
    graph and leave their argument untouched; the conversions
    ({!to_network}, {!to_subject}) and statistics ({!num_ands}, {!depth},
    {!simulate}) only read it. One graph can therefore seed any number of
    pass pipelines, as [Orchestrate.prepare] does with the AIG of its
    optimized baseline. *)

(** {1 Literals}

    A literal is [2 * node_id + complement_bit], the AIGER packing:
    literal [0] is constant false, literal [1] constant true. *)

val const_false : int
(** The always-false literal ([0]). *)

val const_true : int
(** The always-true literal ([1]). *)

val lit : int -> bool -> int
(** [lit node complemented] packs a literal. *)

val lit_node : int -> int
(** Node id of a literal. *)

val lit_compl : int -> bool
(** Complement bit of a literal. *)

val neg : int -> int
(** Complement a literal (an edge inversion — free). *)

(** {1 Construction} *)

val create : ?strash:bool -> pi_names:string array -> unit -> t
(** An empty AIG over the given primary inputs. [strash] (default [true])
    enables hash-consing in {!mk_and}; building with [strash:false] keeps
    every structurally duplicated AND, which is how the {!Strash} pass's
    node reduction is measured. *)

val pi : t -> int -> int
(** Positive literal of primary input [i] (0-based, the {!pi_names}
    order). *)

val mk_and : t -> int -> int -> int
(** The canonical AND constructor. Applies, in order: operand ordering
    (smaller literal first), constant folding ([x AND 0 = 0],
    [x AND 1 = x]), idempotence ([x AND x = x]), complementation
    ([x AND NOT x = 0]), then — on a hash-consing graph — structural
    lookup before allocating a node. Fanins must already be literals of
    this graph. *)

val mk_or : t -> int -> int -> int
(** De Morgan: [mk_or t a b = neg (mk_and t (neg a) (neg b))]. *)

val set_output : t -> string -> int -> unit
(** Append (or overwrite, by name) a primary output driven by a literal. *)

val outputs : t -> (string * int) array
(** Output names and driving literals, in declaration order. *)

(** {1 Statistics} *)

val num_pis : t -> int
(** Primary-input count. *)

val pi_names : t -> string array
(** Primary-input names, index-aligned with {!pi}. *)

val num_nodes : t -> int
(** Allocated AND nodes, including ones no output reaches. *)

val num_ands : t -> int
(** Live AND nodes — reachable from some output. The subject-DAG size
    proxy the orchestrator minimizes. *)

val depth : t -> int
(** Largest number of AND nodes on any output-to-input path (inverters
    are free). 0 when every output is a constant or an input. *)

(** {1 Simulation} *)

val simulate : t -> int64 array -> int64 array
(** Bit-parallel evaluation over 64 vectors: one stimulus word per
    primary input (index-aligned with {!pi_names}), one result word per
    output (aligned with {!outputs}). Mirrors
    {!Cals_logic.Network.simulate} so either side can feed the
    equivalence miter. *)

(** {1 Conversions}

    Both directions preserve the function exactly (the qcheck
    differential in [test_logic] miters the round trip against the
    original network over the fuzz substrate). *)

val of_network : ?strash:bool -> Network.t -> t
(** Convert a Boolean network ({e Network.to_aig} in the flow's
    vocabulary — it lives here to keep the dependency one-way). Each
    node's factored form ({!Factor.factor}) is expanded over balanced AND
    trees with De Morgan ORs, so algebraic structure survives the trip.
    [strash] is passed to {!create} (default [true]).

    @raise Failure on a combinational cycle (via {!Network.topo_order}). *)

val to_network : t -> Network.t
(** Project the AIG back onto a {!Network}: one 2-literal AND node per
    live AIG node (complement bits become SOP literal phases), plus an
    inverter or constant node per complemented or constant output. The
    result is ready for {!Decompose.subject_of_network} or another
    {!of_network} round trip. *)

val to_subject : t -> Cals_netlist.Subject.t
(** Direct NAND2/INV projection: every live AND node becomes one NAND2
    gate (its complemented value), complemented edges are absorbed into
    the consuming gate, and only positive references pay an inverter.
    Structurally cheaper than [Decompose.subject_of_network (to_network t)]
    — this is the subject graph the orchestrator scores. *)

(** {1 Optimization passes} *)

(** One rebuild rule set. Every pass returns a fresh graph and leaves its
    argument untouched; all are equivalence-preserving.

    On an already-canonical graph, {!Strash}, {!Dce} and {!Constprop}
    are idempotent clean-up passes (constants and structural duplicates
    cannot survive {!mk_and}); they earn their place in the orchestrator
    search space by re-canonicalizing after {!Balance}/{!Cse}
    reconstructions and by matching the exemplar script ordering
    (strash, DCE, CSE, constant propagation, balance). *)
type pass =
  | Strash
      (** Rebuild from the outputs through a fresh hash table: merges
          structural duplicates, folds constants, drops unreachable
          nodes. The 15–30%% node reduction of the literature is this
          pass applied to a non-hashed ([strash:false]) construction. *)
  | Rewrite
      (** {!Strash} with two-level rules: absorption
          ([x AND (x AND y) = x AND y]), substitution
          ([x AND NOT (x AND y) = x AND NOT y]), two-level contradiction
          ([(x AND y) AND (x AND NOT y) = 0]) and OR-collapse
          ([NOT (x AND y) AND NOT (x AND NOT y) = NOT x]) — each AND is
          inspected one level into its fanins before being allocated. *)
  | Balance
      (** Delay-oriented reconstruction: maximal single-fanout AND cones
          are flattened and rebuilt lowest-level-first (Huffman order),
          minimizing {!depth} without increasing the live node count of
          the cone. *)
  | Dce
      (** Dead-code elimination: drop nodes no output reaches and
          compact ids. Pure garbage collection — never merges or folds,
          so it is the cheap (hash-free) way to shed dead structure. *)
  | Cse
      (** Chain-canonical sharing: AND cones are flattened like
          {!Balance} but rebuilt as literal-sorted left-deep chains, so
          cones sharing a leaf subset share the chain prefix — sharing
          that pairwise structural hashing cannot see. *)
  | Constprop
      (** Constant propagation: rebuild folding constant fanins through
          {!mk_and}'s rules. Subsumed by construction-time folding on a
          canonical graph; kept for exemplar-script parity. *)

val all_passes : pass list
(** Every pass, in the exemplar script order:
    [[Strash; Dce; Cse; Constprop; Balance; Rewrite]]. *)

val pass_name : pass -> string
(** Lower-case pass name, e.g. ["strash"]. *)

val apply : pass -> t -> t
(** Run one pass, returning the rebuilt graph. *)

val run : pass list -> Network.t -> Network.t
(** [run passes net]: {!of_network}, fold {!apply}, {!to_network}.
    [net] itself is not modified. *)
