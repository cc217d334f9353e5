(** Fiduccia-Mattheyses hypergraph bipartitioning with gain buckets.

    The engine behind recursive-bisection global placement. Nodes may be
    pre-locked to a side (terminal propagation anchors); the pass loop
    keeps the weight balance within a tolerance and reverts to the best
    prefix of each pass. *)

type problem = {
  weights : int array;
  nets : int array array;
  locked : int option array;  (** [Some side] pins the node to side 0/1. *)
}

val bipartition : rng:Cals_util.Rng.t -> problem -> int array
(** Returns the side (0 or 1) of every node. Either side may deviate
    from half the total weight by 0.1 (40/60 splits are acceptable), and
    at most 8 improving passes run. *)

val cut_size : problem -> int array -> int
(** Number of nets with pins on both sides. *)
