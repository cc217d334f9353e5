(** Dense 2-D float grids: congestion maps, density maps, cost surfaces. *)

type t

val create : cols:int -> rows:int -> float -> t
(** [create ~cols ~rows init] fills every bin with [init]. *)

val cols : t -> int
val rows : t -> int

val get : t -> int -> int -> float
(** [get g c r] reads bin [(c, r)]; raises [Invalid_argument] out of range. *)

val set : t -> int -> int -> float -> unit
val add : t -> int -> int -> float -> unit
val fold : (int -> int -> float -> 'a -> 'a) -> t -> 'a -> 'a
val map_inplace : (float -> float) -> t -> unit

val render_ascii : ?levels:string -> t -> string
(** Heat-map rendering: one character per bin, low-to-high along [levels]
    (default [" .:-=+*#%@"]), rows printed top-down. *)
