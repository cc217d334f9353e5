(** Planar geometry used by placement, routing and the congestion-aware
    covering cost (Eq. 2 of the paper computes distances between centers of
    mass on the chip image). *)

type point = { x : float; y : float }

val point : float -> float -> point

val manhattan : point -> point -> float
(** L1 distance — the routing-relevant metric and the library default. *)

type metric =
  | Manhattan  (** L1 — the routing-relevant metric and the mapper default. *)
  | Euclidean  (** L2 — available for the distance-metric ablation. *)

val distance : metric -> point -> point -> float
(** [distance Manhattan] is {!manhattan}; [distance Euclidean a b] is
    [sqrt (dx *. dx +. dy *. dy)] with [dx = a.x -. b.x] and
    [dy = a.y -. b.y]. *)

type bbox = { lx : float; ly : float; hx : float; hy : float }
(** Axis-aligned bounding box with [lx <= hx] and [ly <= hy]. *)

val bbox_empty : bbox
(** A reversed box suitable as fold seed; [bbox_add] fixes it up. *)

val bbox_add : bbox -> point -> bbox

val half_perimeter : bbox -> float
(** HPWL contribution of one net. *)

val clamp : float -> float -> float -> float
(** [clamp lo hi v] restricts [v] to [\[lo, hi\]]. *)
