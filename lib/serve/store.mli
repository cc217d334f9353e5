(** Persistent match-cache store: warmed {!Cals_core.Incremental} sessions
    on disk, so warm mapper hits survive scheduler restarts and can be
    shared across fleet workers.

    {2 File format (version 1)}

    One file per design, [<cache-dir>/<fnv64(design_key)>.mcs], written
    atomically (temp file + rename):

    {v
    magic   8 bytes  "CALS-MCS"
    version 4 bytes  little-endian int
    chksum  8 bytes  FNV-1a 64 over the payload bytes
    length  8 bytes  payload byte count
    payload          design_key, library name, then per cached tree:
                     fingerprint + per-node candidate sets (cells by name)
    v}

    Candidates keep their exact enumeration order, so a session loaded
    from a store file maps bit-identically to a freshly warmed one (the
    cover DP's tie-breaking depends on that order). {!save} writes the
    session's table slices; {!load} parses straight into the fresh
    session's table.

    {2 Failure semantics}

    Loading never raises and never produces wrong matches. A missing,
    truncated, bit-flipped, version-skewed or otherwise unparsable file,
    or one whose design key or library vintage disagrees, is a cold miss
    ({!Cold}), counted on the [serve_cache_store_*] counters, and leaves
    the session exactly as cold as it was: what the load appended is
    dropped again. A count larger than the bytes left is corrupt before
    anything is sized by it. A tree entry is filled only if its
    fingerprint names one of the session's uncached trees, it lists
    exactly that tree's live gates, and every candidate is a genuine
    match there ({!Cals_core.Matches.add_stored}); any other entry is
    skipped, so a file that passes every file-level check can only fail
    to warm a tree, never poison it or make a map fail. *)

val version : int
(** Current format version; bump on any layout change. *)

type cold_reason =
  | Absent  (** No store file for this design key. *)
  | Corrupt of string
      (** Truncated, checksum-mismatched or unparsable file (the string
          says which check failed). *)
  | Version_skew of int  (** File written by format version [v]. *)
  | Key_mismatch  (** Hash collision: the file belongs to another key. *)

type load_result =
  | Loaded of int  (** Entries installed into the session's cache. *)
  | Cold of cold_reason

val path : dir:string -> key:string -> string
(** The store file for [key] under [dir]. *)

val load :
  dir:string -> key:string -> Cals_core.Incremental.session -> load_result
(** Fill a fresh (unwarmed, not yet shared) session from the store. Cells
    are resolved by name against the session's library; an unresolvable
    cell marks the whole file corrupt. Never raises. *)

val save :
  dir:string ->
  key:string ->
  Cals_core.Incremental.session ->
  (int, string) result
(** Serialize the session's cached match sets (call after
    {!Cals_core.Incremental.warm}). Creates [dir] if needed, writes
    atomically, returns the file's byte size. On an error no temp file
    is left behind. *)
