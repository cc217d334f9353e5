(** Technology-independent Boolean network.

    Nodes carry a sum-of-products function over their fanins (local variable
    [i] of a node is its [i]-th fanin). The network is mutable: the
    optimization passes in {!Optimize} rewrite node functions in place, add
    divisor nodes and remove dead ones. *)

type signal =
  | Pi of int  (** Primary input index. *)
  | Node of int  (** Internal node id. *)

type node = {
  mutable fanins : signal array;
  mutable sop : Sop.t;  (** Over local fanin positions. *)
}

type t

val create : pi_names:string array -> t
(** Empty network over the named primary inputs. *)

val num_pis : t -> int
(** Number of primary inputs. *)

val pi_names : t -> string array
(** Primary-input names, in index order. *)

val add_node : t -> signal array -> Sop.t -> int
(** Appends a node; the SOP support must fit the fanin count. *)

val node : t -> int -> node
(** The (mutable) node record for an id. *)

val num_nodes : t -> int
(** Allocated node count, including dead nodes. *)

val copy : t -> t
(** Deep copy: the optimization passes may mutate the copy (or the
    original) without affecting the other. Used to keep a pristine
    reference for equivalence checking across an optimization script. *)

val set_output : t -> string -> signal -> unit
(** Add (or redefine, by name) a primary output driven by the signal. *)

val outputs : t -> (string * signal) array
(** Primary outputs in declaration order. *)

val live_nodes : t -> bool array
(** Reachability from the outputs. *)

val topo_order : t -> int list
(** Live nodes only, fanins before fanouts. Raises [Failure] on a
    combinational cycle. *)

val fanout_table : t -> (int, int list) Hashtbl.t
(** For each live node id, the list of live consumer node ids (excludes
    primary-output references; those are in [outputs]). *)

val num_literals : t -> int
(** Total SOP literals over live nodes — the SIS area-estimation metric. *)

val num_live_nodes : t -> int
(** Nodes reachable from the outputs. *)

val normalize_fanins : t -> int -> unit
(** Drop fanins no longer used by the node's SOP and compact variables. *)

val sweep : t -> unit
(** Remove dead nodes (compacts ids), propagate constant nodes and collapse
    single-positive-literal (buffer) nodes. *)

val simulate : t -> int64 array -> int64 array
(** Bit-parallel over 64 vectors; stimulus per PI, result per output. *)

val random_vectors : Cals_util.Rng.t -> t -> int64 array
(** One random 64-bit stimulus word per primary input, for {!simulate}. *)

val validate : t -> (unit, string) result
(** Structural checks: signal ranges, support within fanins, acyclicity. *)
