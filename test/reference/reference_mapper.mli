(** The cold mapper: partition, enumerate every live gate's matches into
    a fresh table, run the covering DP and extract, with no session.

    This is the mapping {!Cals_core.Incremental.map} must reproduce bit
    for bit at every K: same netlist, same cover, same statistics. It
    ships in no library; tests link it as their oracle. *)

val table :
  Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  partition:Cals_core.Partition.t ->
  Cals_core.Matches.table
(** {!Cals_core.Matches.add_node} at every live gate of [partition], in
    node order: the complete table {!Cals_core.Cover.run} takes. *)

val matchset :
  Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  partition:Cals_core.Partition.t ->
  Reference_cover.matchset
(** The same candidates as records read off the table's slices, [None]
    at PIs and dead gates: the input of the list oracle
    {!Reference_cover.run}. *)

val map :
  ?verify:bool ->
  Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  positions:Cals_util.Geom.point array ->
  Cals_core.Mapper.options ->
  Cals_core.Mapper.result
(** Map [subject] at [options.k] against its companion placement
    [positions]. With [verify] (default [false]) the extraction is checked
    to cover every live gate, and a violation raises
    {!Cals_verify.Check.Violation} with stage ["cover"]. *)
