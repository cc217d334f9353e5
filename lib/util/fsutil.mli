(** Small filesystem helpers shared by the serve scheduler, the shard
    front-end and the match-cache store (previously private to the
    scheduler). *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; existing directories are
    fine. Raises [Unix.Unix_error] when a component cannot be created
    (e.g. a parent is a regular file). *)

val sanitize : string -> string
(** Map a job or file identifier to a safe filename component:
    alphanumerics, ['-'], ['_'] and ['.'] pass through, everything else
    becomes ['_']. The empty string and ["."] become ["_"], and [".."]
    becomes ["__"], so the result always names an entry inside the
    directory it is joined to. *)

val write_file : string -> string -> unit
(** Write a whole file (creating parent directories), truncating any
    previous content. *)

val read_lines : string -> string list
(** All lines of a text file, without terminators. *)

val writable_dir : string -> (unit, string) result
(** Ensure the directory exists (creating it if needed) and prove it is
    writable by creating and removing a probe file. Used to validate
    [--cache-dir] and output directories up front, before any job runs. *)
