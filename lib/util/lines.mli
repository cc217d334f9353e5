(** Incremental newline framing for non-blocking byte streams.

    The shard front-end multiplexes worker pipes and client sockets
    through one [select] loop; reads arrive in arbitrary chunks that may
    split a JSON line anywhere. A {!t} buffers the tail between reads and
    hands back only complete lines. *)

type t

val create : unit -> t

val feed : t -> bytes -> int -> string list
(** [feed t buf n] absorbs the first [n] bytes of [buf] and returns the
    complete lines now available, in order, without their terminating
    ['\n'] (a trailing ['\r'] is also stripped, for telnet-style TCP
    clients). Bytes after the last newline stay buffered for the next
    feed. *)
