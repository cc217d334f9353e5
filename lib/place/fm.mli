(** Fiduccia-Mattheyses hypergraph bipartitioning with gain buckets.

    The engine behind recursive-bisection global placement. Nodes may be
    pre-locked to a side (terminal propagation anchors); the pass loop
    keeps the weight balance within a tolerance and reverts to the best
    prefix of each pass. Either side may deviate from half the total
    weight by 0.1 (40/60 splits are acceptable), and at most 8 improving
    passes run.

    A pass ends early once no later prefix can beat its best one. A net
    with a pin on each side that cannot move again in the pass (a
    locked node, or a node the pass has moved) stays cut until the pass
    ends, so every later cut counts at least these dead nets. When they
    reach the best cut of the pass, checked before the first move and
    after each move, the pass stops and rolls back to its best prefix:
    only moves that would have been rolled back are skipped, and the
    sides and the pass count are those of a pass run to the end. The
    [fm_moves] counter counts the moves up to that exit. A dead net adds
    nothing to a free node's gain, so a move updates no gain through it;
    a net locked to both sides is dead in every pass and stays out of
    the incidence altogether, counting only toward the cut.

    The gain buckets span [-d, d], where [d] is the largest degree of a
    free node over the other nets (at least 1): a free node's gain lies
    within its degree, and a locked node never enters a bucket.

    The kernel is flat: the problem and every work array live in one
    {!scratch}, and a run or pass resets what it uses instead of
    allocating. The result depends only on the problem and the RNG, and
    these orders fix it: the RNG draws (one shuffle of the node ids, as
    {!Cals_util.Rng.shuffle} draws), the nets' order and each net's pin
    order (they order every node's incident nets and every gain update),
    and the LIFO order within a gain bucket. *)

type work
(** Incidence, side counts, each net's fixed sides, gain buckets and the
    move stack. *)

type scratch = {
  weight : int array;  (** Weight of each node. *)
  lock : int array;  (** [0] or [1] pins the node to that side; [-1] frees it. *)
  net_lo : int array;
  net_hi : int array;
      (** Net [e]'s pins are [pins.(net_lo.(e)) .. pins.(net_hi.(e) - 1)]. *)
  pins : int array;
  side : int array;  (** The result: side 0 or 1 of each node. *)
  work : work;
}
(** A problem of up to [nodes] nodes, [nets] nets and [pins] slots of
    [pins], and the work arrays of its runs. *)

val scratch : nodes:int -> nets:int -> pins:int -> scratch

val run : scratch -> rng:Cals_util.Rng.t -> nodes:int -> nets:int -> unit
(** Bipartition the problem held in the first [nodes] nodes and [nets]
    nets of the scratch, leaving the sides in [side]. *)
