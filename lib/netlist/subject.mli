(** The subject graph: a technology-independent netlist of base gates
    (2-input NANDs and inverters) plus primary inputs and outputs.

    Nodes are integers; the node array is topologically ordered by
    construction (a gate may only reference already-created nodes). The
    builder performs structural hashing so that identical subexpressions
    share one node. *)

type gate =
  | Pi of int  (** Primary input; payload is the index into [pi_names]. *)
  | Inv of int  (** Fanin node id. *)
  | Nand2 of int * int  (** Fanin node ids, stored in canonical order. *)

type t = private {
  gates : gate array;  (** Topologically ordered. *)
  pi_names : string array;
  outputs : (string * int) array;  (** Primary-output name and driver node. *)
}

(** {1 Building} *)

type builder

val builder : unit -> builder

val add_pi : builder -> string -> int
(** New primary input node. Names must be unique. *)

val add_inv : builder -> int -> int
(** Structural-hashed inverter. [add_inv b (add_inv b x) = x] is {e not}
    simplified — double inverters are kept so mapping can choose BUF —
    but two calls with the same fanin return the same node. *)

val add_nand : builder -> int -> int -> int
(** Structural-hashed NAND2; argument order is irrelevant. *)

val add_const : builder -> bool -> int
(** Constants are modelled as a dedicated tied-off input net: [add_const]
    creates (once) a PI named ["__const0"] and returns it or its inverter. *)

val set_output : builder -> string -> int -> unit
val freeze : builder -> t

(** {1 Queries} *)

val num_nodes : t -> int
val num_pis : t -> int

val num_gates : t -> int
(** NAND2 + INV count (the paper's "base gates" metric). *)

val num_nand2 : t -> int
val num_inv : t -> int

val fanouts : t -> int list array
(** [fanouts t].(v) lists the nodes reading [v], in increasing order.
    Primary-output reads are not included; see [output_refs]. *)

val fanout_counts : t -> int array
(** Fanout degree including primary-output reads. *)

val fanins : gate -> int list

val output_refs : t -> int array
(** [output_refs t].(v) = number of primary outputs driven by [v]. *)

(** {1 Simulation} *)

val simulate : t -> int64 array -> int64 array
(** [simulate t pi_vectors] runs 64 test vectors in parallel;
    [pi_vectors] is indexed like [pi_names], the result like [outputs]. *)

val random_vectors : Cals_util.Rng.t -> t -> int64 array
(** Fresh random stimulus for property tests. *)
