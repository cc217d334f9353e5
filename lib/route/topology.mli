(** Net topology: multi-pin nets decomposed into two-pin segments.

    Uses a rectilinear minimum spanning tree (Prim) over the pin gcells —
    the standard pre-step of pattern/maze global routing. *)

type segment = {
  src : int * int;  (** Gcell coordinates. *)
  dst : int * int;
}

val mst_segments_sorted : (int * int) list -> segment list
(** Spanning-tree edges over pin gcells that are already distinct and
    sorted ([List.sort_uniq compare]) — the form the router keeps its
    per-net gcell lists in. Empty for 0 or 1 pin. *)

val star_segments : (int * int) -> (int * int) list -> segment list
(** Driver-rooted star topology (ablation alternative to the MST). *)
