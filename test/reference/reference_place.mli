(** The list-based companion placement: recursive min-cut bisection
    over an FM bipartition that rebuilds its hash table, lists,
    incidence arrays, count matrix and gain buckets for every region and
    pass. {!Cals_place.Bisect.place} and {!Cals_place.Fm.bipartition}
    must reproduce it bit for bit: same RNG draws, same sides, same
    positions. It ships in no library; test_place compares the two. *)

val bipartition : rng:Cals_util.Rng.t -> Cals_place.Fm.problem -> int array
(** Sides (0 or 1) of every node, as {!Cals_place.Fm.bipartition}. *)

val cut_size : Cals_place.Fm.problem -> int array -> int
(** Number of nets with pins on both sides. *)

val place :
  Cals_place.Hypergraph.t ->
  floorplan:Cals_place.Floorplan.t ->
  rng:Cals_util.Rng.t ->
  Cals_util.Geom.point array
(** Positions of every node, as {!Cals_place.Bisect.place}. *)
