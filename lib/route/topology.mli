(** Net topology: multi-pin nets decomposed into two-pin segments.

    Uses a rectilinear minimum spanning tree (Prim) over the pin gcells —
    the standard pre-step of pattern/maze global routing. A net's gcells
    are a slice [cells.(lo) .. cells.(hi - 1)] of gcell ids
    [c * rows + r], distinct and sorted (so by column, then row): the
    form {!Router.Request} keeps them in. Segments are reported as
    [f src dst] on gcell ids, in the order the topology adds them. *)

type scratch
(** Prim's work arrays, reused from net to net. *)

val scratch : int -> scratch
(** Room for nets of up to that many distinct gcells. *)

val iter_mst :
  scratch -> rows:int -> int array -> int -> int -> (int -> int -> unit) -> unit
(** [iter_mst s ~rows cells lo hi f]: the spanning-tree edges of the
    slice, grown from its first gcell; each new gcell joins the nearest
    tree gcell (Manhattan), ties going to the earlier slice position.
    Nothing for fewer than two gcells. *)
