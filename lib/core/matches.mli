(** K-independent structural matches and the flat candidate table.

    Pattern matching is purely structural: a candidate binding depends on
    the subject graph, the partition and the library, but not on K, the
    companion placement or the DP state. A K-schedule sweep therefore
    enumerates matches once into a {!table} and re-runs only the
    cost-combination DP ({!Cover.run}) per K point; an {!Incremental}
    session keeps one table, and the persistent store
    ([Cals_serve.Store]) saves and loads it. The list enumerator is the
    test oracle [test/reference/reference_matches.ml]. *)

type shape
(** One cell pattern, flattened for the enumeration walk. *)

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
  shapes : shape array array;  (** Per cell index: its patterns. *)
  width : int;  (** Pattern nodes in the widest shape. *)
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
  enumerated : int array;
      (** Per subject node: raw bindings enumerated, including ones
          rejected for unbound variables, so that
          {!Cover.matches_evaluated} is the same however the table was
          filled. *)
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

type walker
(** The enumeration walk's scratch for one table and partition. *)

val walker : table -> partition:Partition.t -> walker
(** A walker for [table]: its record and four arrays of [width]
    entries. Reuse one over the nodes of a tree instead of making one per
    node. It serves one call at a time, so make one per loop on the
    domain that runs it; walkers of different tables may run on any
    domains. *)

val add_node : walker -> int -> unit
(** Enumerate every structural candidate at live gate [v] into the
    walker's table and append them, cells and their patterns in library
    order. Internal pattern nodes descend only along father edges of the
    partition; leaves bind anywhere; a NAND tries its operands as
    [(a, b)], then, unless [a = b], as [(b, a)]. [v] must not be in the
    table. *)

(** {2 Filling from stored candidates} *)

val add_candidate :
  table ->
  cell:int ->
  leaves:int array ->
  nleaves:int ->
  covered:int array ->
  ncovered:int ->
  unit
(** Append a candidate of cell index [cell] with the first [nleaves]
    [leaves] and the first [ncovered] [covered] gates; it belongs to no
    node until {!add_stored} claims it. *)

val add_stored : walker -> int -> first:int -> enumerated:int -> bool
(** Make candidates [first] to [count - 1] those of live gate [v] (not yet
    in the walker's table), with [enumerated] raw bindings, if there is at least
    one and each is a binding of one of its cell's patterns at [v]: its
    leaves and covered gates, in order, are what {!add_node} writes for
    that binding. So every leaf is a primary input or a live gate below
    [v], every covered gate is in [v]'s tree, and the leaf count is the
    arity. Returns whether it did; on [false] the caller drops the
    candidates with {!truncate}. *)

val truncate : table -> int -> unit
(** [truncate t count] drops the candidates from [count] on and forgets
    every node whose candidates reach past it. *)
