(** The cold mapper: partition, enumerate every live gate's matches, run
    the covering DP and extract, with no session and no cache.

    This is the mapping {!Cals_core.Incremental.map} must reproduce bit
    for bit at every K: same netlist, same cover, same statistics. It
    ships in no library; tests link it as their oracle. *)

val matchset :
  Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  partition:Cals_core.Partition.t ->
  Cals_core.Cover.matchset
(** {!Cals_core.Cover.match_node} at every live gate of [partition],
    [None] elsewhere: the complete matchset {!Cals_core.Cover.run}
    takes. *)

val map :
  ?verify:bool ->
  Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  positions:Cals_util.Geom.point array ->
  Cals_core.Mapper.options ->
  Cals_core.Mapper.result
(** Map [subject] at [options.k] against its companion placement
    [positions]. With [verify] (default [false]) the cover is checked for
    legality before extraction, and a violation raises
    {!Cals_verify.Check.Violation} with stage ["cover"]. *)
