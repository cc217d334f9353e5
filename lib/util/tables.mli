(** Plain-text table rendering for bench output and reports. The bench
    harness prints the paper's tables through this module so every
    experiment has a uniform, diffable format. *)

type align = Left | Right

val render : ?title:string -> header:string list -> align list -> string list list -> string
(** [render ~title ~header aligns rows] lays out a boxed text table. The
    [aligns] list gives per-column alignment and must match [header]. *)

val fmt_float : int -> float -> string
(** [fmt_float digits v] fixed-point formatting. *)

val fmt_int : int -> string
(** Decimal with thousands separators, e.g. [126394 -> "126,394"]. *)

(** 64-bit FNV-1a incremental hashing — the fingerprint primitive used by
    caches that key on structural summaries (e.g. the incremental mapper's
    per-tree match cache). Deterministic across runs and domains. *)
module Fnv64 : sig
  val empty : int64
  (** The FNV-1a offset basis. *)

  val int : int64 -> int -> int64
  (** Absorb an integer (all eight little-endian bytes). *)

  val string : int64 -> string -> int64
  (** Absorb every byte of a string. *)
end
