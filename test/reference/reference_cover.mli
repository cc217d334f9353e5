(** The list-based covering DP and extraction: candidates as records, a
    {!Cals_core.Cover.solution} per chosen vertex, the metric called
    through a closure, every figure folded from its plain definition.
    {!Cals_core.Cover.run} and {!Cals_core.Cover.extract} must reproduce
    it bit for bit: same chosen candidate and float bits at every gate,
    same netlist. It ships in no library; test_core compares the two. *)

type candidate = {
  cell : Cals_cell.Cell.t;
  leaves : int array;  (** Subject node per pattern variable. *)
  covered : int list;  (** Base gates the match consumes, in pre-order. *)
}

type node_matches = {
  candidates : candidate array;  (** In enumeration order. *)
  enumerated : int;  (** Raw bindings, as {!Cals_core.Matches.table}. *)
}

type matchset = node_matches option array
(** Indexed by subject node; [None] for primary inputs and dead gates. *)

type t

val run :
  matchsets:matchset ->
  Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  partition:Cals_core.Partition.t ->
  positions:Cals_util.Geom.point array ->
  Cals_core.Cover.options ->
  t
(** As {!Cals_core.Cover.run}; a live gate without a match set raises
    [Invalid_argument]. *)

val solution : t -> int -> Cals_core.Cover.solution option
val matches_evaluated : t -> int

val extract : t -> Cals_core.Cover.extraction
(** As {!Cals_core.Cover.extract}. *)
