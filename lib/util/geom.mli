(** Planar geometry used by placement, routing and the congestion-aware
    covering cost (Eq. 2 of the paper computes distances between centers of
    mass on the chip image). *)

type point = { x : float; y : float }

val point : float -> float -> point

val manhattan : point -> point -> float
(** L1 distance — the routing-relevant metric and the library default. *)

val euclidean : point -> point -> float
(** L2 distance — available for the distance-metric ablation. *)

type bbox = { lx : float; ly : float; hx : float; hy : float }
(** Axis-aligned bounding box with [lx <= hx] and [ly <= hy]. *)

val bbox_empty : bbox
(** A reversed box suitable as fold seed; [bbox_add] fixes it up. *)

val bbox_add : bbox -> point -> bbox

val half_perimeter : bbox -> float
(** HPWL contribution of one net. *)

val clamp : float -> float -> float -> float
(** [clamp lo hi v] restricts [v] to [\[lo, hi\]]. *)
