(** Berkeley Logic Interchange Format reader/writer.

    Supports the combinational subset used by the IWLS93 benchmarks the
    paper evaluates: [.model], [.inputs], [.outputs], [.names] (on-set and
    off-set cover lines), comments and line continuations. Latches and
    subcircuits are rejected with a clear error. *)

exception Parse_error of string
(** Raised with a message containing the offending line number. *)

val parse : string -> Network.t
(** Parse BLIF source text. *)

val load : string -> (Network.t, string) result
(** Read a circuit file: Espresso PLA ({!Pla.parse}) when its name ends
    in [.pla], BLIF otherwise. A file that cannot be read or parsed is
    [Error reason]; the reason does not repeat the path. *)

val print : ?model:string -> Network.t -> string
(** Render a network back to BLIF (one [.names] per live node). *)
