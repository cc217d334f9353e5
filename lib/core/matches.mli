(** K-independent structural matches and the flat candidate table.

    Pattern matching is purely structural: a candidate binding depends on
    the subject graph, the partition and the library, but not on K, the
    companion placement or the DP state. A K-schedule sweep therefore
    enumerates matches once into a {!table} and re-runs only the
    cost-combination DP ({!Cover.run}) per K point; an {!Incremental}
    session keeps one table. *)

(** {2 Portable form}

    One node's candidates as records, for the persistent store
    ({!Cals_serve.Store}) and for the list-based test oracle. *)

type candidate = {
  cand_cell : Cals_cell.Cell.t;
  cand_leaves : int array;  (** Subject node per pattern variable. *)
  cand_covered : int list;  (** Base gates the match consumes. *)
}

type node_matches = {
  candidates : candidate array;
      (** In exact (cell, pattern, binding) enumeration order; the DP's
          tie-breaking depends on this order. *)
  enumerated : int;
      (** Raw bindings enumerated, including ones rejected for unbound
          variables, so that {!Cover.matches_evaluated} is the same
          however the table was filled. *)
}

(** {2 The table}

    One CSR table over the subject's nodes. Node [v]'s candidates are
    [first.(v)] to [stop.(v) - 1], in enumeration order. Candidate [c]
    names the cell [cells.(cell.(c))]; its leaves (one subject node per
    pattern variable) are [leaves.(leaf_first.(c))] to
    [leaves.(leaf_first.(c + 1) - 1)], and the base gates it covers are
    the same slice of [covered] under [cov_first]. The candidate arrays
    grow as nodes are added, so only their first [count] entries (and
    [count + 1] offsets) are meaningful. *)

type table = private {
  subject : Cals_netlist.Subject.t;
  library : Cals_cell.Library.t;
  cells : Cals_cell.Cell.t array;  (** The library's cells, in order. *)
  cell_area : float array;  (** Per cell index. *)
  cell_input_cap : float array;  (** Per cell index, pF. *)
  cell_intrinsic : float array;  (** Per cell index, ns. *)
  cell_drive : float array;  (** Per cell index, kΩ. *)
  load : float array;
      (** Per subject node: the load a match rooted there drives,
          [0.01 *. float_of_int (max 1 fanout)] pF — each reader is
          roughly one standard sink, and a sinkless root still drives a
          primary-output load. *)
  first : int array;  (** Per subject node; [-1] if not in the table. *)
  stop : int array;  (** Per subject node. *)
  enumerated : int array;  (** Per subject node; see {!node_matches}. *)
  mutable count : int;  (** Candidates in the table. *)
  mutable cell : int array;
  mutable leaf_first : int array;
  mutable leaves : int array;
  mutable cov_first : int array;
  mutable covered : int array;
}

val create : Cals_netlist.Subject.t -> library:Cals_cell.Library.t -> table
(** An empty table for [subject]. *)

val copy : table -> table
(** An independent copy: adding nodes to it leaves the original alone. *)

val mem : table -> int -> bool
(** Whether node [v]'s candidates are in the table. *)

val add_node : table -> partition:Partition.t -> int -> unit
(** Enumerate every structural candidate at live gate [v] and append
    them. Internal pattern nodes descend only along father edges of
    [partition]; leaves bind anywhere. [v] must not be in the table. *)

val valid : table -> partition:Partition.t -> int -> node_matches -> bool
(** Whether [add_matches] may install these candidates at live gate [v]:
    there is at least one, and each names a cell of the table's library
    (the same record, as {!Cals_cell.Library.find_opt} returns it) and
    is a binding of one of that cell's patterns at [v] — its leaves
    and covered gates, in order, are what {!add_node} would produce for
    that binding. So every leaf is a primary input or a live gate below
    [v], every covered gate is in [v]'s tree, and the leaf count is the
    cell's arity. *)

val add_matches : table -> int -> node_matches -> unit
(** Append portable candidates at node [v], in order. [v] must not be in
    the table and the candidates must be {!valid}. *)

val node_matches : table -> int -> node_matches
(** Node [v]'s candidates in portable form; [v] must be in the table. *)
