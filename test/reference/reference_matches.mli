(** The list-based match enumerator: every binding of every library
    pattern at a node, built as association lists. {!Cals_core.Matches.add_node}
    must write the same candidates, in the same order, into its table
    (test_core "table enumeration == list oracle"). It ships in no
    library. *)

val node_matches :
  Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  partition:Cals_core.Partition.t ->
  int ->
  Reference_cover.node_matches
(** The candidates at live gate [v]: cells in library order, each cell's
    patterns in order, each pattern's bindings in enumeration order;
    bindings that leave a variable unbound are counted in [enumerated]
    but not kept. *)
