(** Listen/connect addresses for the serve fleet.

    A tiny parser over the two socket families the front-end supports,
    plus the listen/connect syscall wrappers, so [bin/cals.ml] and the
    shard front-end share one address grammar:

    - [unix:/path/to.sock] — a Unix-domain socket;
    - [host:port], [:port] or [port] — TCP ([host] defaults to
      127.0.0.1);
    - [tcp:host:port] — explicit TCP.

    Parsing is pure; host resolution happens at {!listen} time. *)

type t =
  | Unix_sock of string  (** Filesystem path of a Unix-domain socket. *)
  | Tcp of string * int  (** Host (name or dotted quad) and port. *)

val parse : string -> (t, string) result
(** Parse the grammar above. Errors on an empty address, an empty Unix
    path, a non-numeric or out-of-range port, or an empty host in the
    [tcp:] form. *)

val listen : ?backlog:int -> t -> Unix.file_descr
(** Bind and listen (default [backlog] 64). A pre-existing socket file
    under a [Unix_sock] address is unlinked first; TCP sockets are bound
    with [SO_REUSEADDR]. Raises [Unix.Unix_error] or [Failure] (host
    resolution) on failure. *)
