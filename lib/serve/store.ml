module Incremental = Cals_core.Incremental
module Matches = Cals_core.Matches
module Library = Cals_cell.Library
module Cell = Cals_cell.Cell
module Fnv = Cals_util.Tables.Fnv64
module Metrics = Cals_telemetry.Metrics

let version = 1
let magic = "CALS-MCS"

type cold_reason =
  | Absent
  | Corrupt of string
  | Version_skew of int
  | Key_mismatch

type load_result = Loaded of int | Cold of cold_reason

let m_hit =
  Metrics.counter ~help:"Match-cache store loads that warmed a session"
    "serve_cache_store_hit"

let m_miss =
  Metrics.counter ~help:"Match-cache store loads that found nothing usable"
    "serve_cache_store_miss"

let m_corrupt =
  Metrics.counter
    ~help:"Match-cache store files rejected as corrupt or version-skewed"
    "serve_cache_store_corrupt"

let m_saved =
  Metrics.counter ~help:"Match-cache store files written"
    "serve_cache_store_saved"

let m_bytes =
  Metrics.gauge ~help:"Byte size of the last match-cache store file written"
    "serve_cache_store_bytes"

let path ~dir ~key =
  Filename.concat dir (Printf.sprintf "%016Lx.mcs" (Fnv.string Fnv.empty key))

(* -- serialization ------------------------------------------------------ *)

let add_str b s =
  Buffer.add_int32_le b (Int32.of_int (String.length s));
  Buffer.add_string b s

let add_int b i = Buffer.add_int32_le b (Int32.of_int i)

(* A candidate's leaves or covered gates: the count, then the slice. *)
let add_slice b data first c =
  let lo = first.(c) and hi = first.(c + 1) in
  add_int b (hi - lo);
  for i = lo to hi - 1 do
    add_int b data.(i)
  done

let payload_of ~key session =
  let t = Incremental.table session in
  let b = Buffer.create 65536 in
  add_str b key;
  add_str b (Library.name (Incremental.library session));
  let trees = Incremental.cached session in
  add_int b (List.length trees);
  List.iter
    (fun (fp, nodes) ->
      Buffer.add_int64_le b fp;
      add_int b (Array.length nodes);
      Array.iter
        (fun v ->
          let first = t.Matches.first.(v) and stop = t.Matches.stop.(v) in
          add_int b v;
          add_int b t.Matches.enumerated.(v);
          add_int b (stop - first);
          for c = first to stop - 1 do
            add_str b t.Matches.cells.(t.Matches.cell.(c)).Cell.name;
            add_slice b t.Matches.leaves t.Matches.leaf_first c;
            add_slice b t.Matches.covered t.Matches.cov_first c
          done)
        nodes)
    trees;
  Buffer.contents b

(* -- parsing ------------------------------------------------------------ *)

let header_len = 8 + 4 + 8 + 8

exception Bad of string

type cursor = { data : string; mutable pos : int }

let need cur n what =
  if cur.pos + n > String.length cur.data then
    raise (Bad (Printf.sprintf "truncated %s" what))

let get_int cur what =
  need cur 4 what;
  let v = Int32.to_int (String.get_int32_le cur.data cur.pos) in
  cur.pos <- cur.pos + 4;
  if v < 0 then raise (Bad (Printf.sprintf "negative %s" what));
  v

let get_int64 cur what =
  need cur 8 what;
  let v = String.get_int64_le cur.data cur.pos in
  cur.pos <- cur.pos + 8;
  v

(* A count of items that each take at least one byte: more than the bytes
   left cannot be right, and checking first keeps [Array.init] and
   [List.init] from sizing anything by a damaged count. *)
let get_count cur what =
  let n = get_int cur what in
  if n > String.length cur.data - cur.pos then
    raise (Bad (Printf.sprintf "%s %d exceeds the payload" what n));
  n

let get_str cur what =
  let n = get_int cur what in
  need cur n what;
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

(* A cell name, as its index in [names] (the table's cells' names). *)
let get_cell cur names =
  let name = get_str cur "cell name" in
  match Array.find_index (String.equal name) names with
  | Some ci -> ci
  | None -> raise (Bad (Printf.sprintf "unknown cell %S" name))

(* A counted run of ints into [buf], grown to fit; the count. *)
let get_ints cur buf what =
  let n = get_count cur what in
  if n > Array.length !buf then buf := Array.make (2 * n) 0;
  for i = 0 to n - 1 do
    !buf.(i) <- get_int cur what
  done;
  n

(* Parse the payload straight into the session's table. A tree entry
   fills the table only if it is one of the session's missing trees,
   lists exactly that tree's live gates in order, and every node's
   candidates are genuine matches there ({!Matches.add_stored});
   otherwise its candidates are dropped and the tree stays cold, so a
   file that passes its checksum yet disagrees with the session cannot
   crash or skew a map. On [Bad] (or any other exception) every tree
   this load filled is dropped again, and the session is as cold as it
   was. Candidates are appended in the order they were saved in; the
   DP's tie-breaking depends on it. *)
let fill ~key session data =
  let cur = { data; pos = header_len } in
  if get_str cur "design key" <> key then raise (Bad "key");
  let lib_name = get_str cur "library name" in
  if lib_name <> Library.name (Incremental.library session) then
    raise (Bad (Printf.sprintf "library %S" lib_name));
  let table = Incremental.table session in
  let partition = Incremental.partition session in
  let names = Array.map (fun (c : Cell.t) -> c.Cell.name) table.Matches.cells in
  let base = table.Matches.count in
  let leaves = ref [||] and covered = ref [||] in
  let filled = ref 0 in
  match
    for _ = 1 to get_count cur "entry count" do
      let fp = get_int64 cur "fingerprint" in
      let n_nodes = get_count cur "node count" in
      let tree_first = table.Matches.count in
      let nodes =
        match Incremental.missing session fp with
        | Some nodes when Array.length nodes = n_nodes -> nodes
        | Some _ | None -> [||]
      in
      let keep = ref (nodes <> [||]) in
      let walker = Matches.walker table ~partition in
      for i = 0 to n_nodes - 1 do
        let v = get_int cur "node id" in
        let enumerated = get_int cur "enumerated" in
        let first = table.Matches.count in
        for _ = 1 to get_count cur "candidate count" do
          let cell = get_cell cur names in
          let nleaves = get_ints cur leaves "leaf" in
          let ncovered = get_ints cur covered "covered" in
          Matches.add_candidate table ~cell ~leaves:!leaves ~nleaves
            ~covered:!covered ~ncovered
        done;
        keep :=
          !keep && v = nodes.(i)
          && Matches.add_stored walker v ~first ~enumerated
      done;
      if !keep then incr filled else Matches.truncate table tree_first
    done;
    if cur.pos <> String.length data then raise (Bad "trailing bytes")
  with
  | () -> !filled
  | exception e ->
    Matches.truncate table base;
    raise e

(* -- load/save ---------------------------------------------------------- *)

exception Skew of int

(* The header and checksum, then the payload; the trees filled. *)
let fill_file ~key session file =
  let data = In_channel.with_open_bin file In_channel.input_all in
  if String.length data < header_len then raise (Bad "header");
  if String.sub data 0 8 <> magic then raise (Bad "magic");
  let v = Int32.to_int (String.get_int32_le data 8) in
  if v <> version then raise (Skew v);
  let plen = Int64.to_int (String.get_int64_le data 20) in
  if plen < 0 || header_len + plen <> String.length data then
    raise (Bad "length");
  if
    Fnv.string Fnv.empty (String.sub data header_len plen)
    <> String.get_int64_le data 12
  then raise (Bad "checksum");
  fill ~key session data

let load ~dir ~key session =
  let file = path ~dir ~key in
  let result =
    if not (Sys.file_exists file) then Cold Absent
    else
      match fill_file ~key session file with
      | 0 -> Cold Absent
      | n -> Loaded n
      | exception Bad "key" -> Cold Key_mismatch
      | exception Bad what -> Cold (Corrupt what)
      | exception Skew v -> Cold (Version_skew v)
      | exception _ -> Cold (Corrupt "unreadable")
  in
  Metrics.incr
    (match result with
    | Loaded _ -> m_hit
    | Cold Absent -> m_miss
    | Cold (Corrupt _ | Version_skew _ | Key_mismatch) -> m_corrupt);
  result

(* The temp file goes on every error path, with its channel closed. *)
let save ~dir ~key session =
  let file = path ~dir ~key in
  let tmp = Printf.sprintf "%s.%d.tmp" file (Unix.getpid ()) in
  let fail msg =
    (try Sys.remove tmp with Sys_error _ -> ());
    Error msg
  in
  try
    Cals_util.Fsutil.mkdir_p dir;
    let payload = payload_of ~key session in
    let b = Buffer.create (header_len + String.length payload) in
    Buffer.add_string b magic;
    Buffer.add_int32_le b (Int32.of_int version);
    Buffer.add_int64_le b (Fnv.string Fnv.empty payload);
    Buffer.add_int64_le b (Int64.of_int (String.length payload));
    Buffer.add_string b payload;
    Out_channel.with_open_bin tmp (fun oc ->
        Buffer.output_buffer oc b;
        close_out oc);
    Sys.rename tmp file;
    Metrics.incr m_saved;
    Metrics.set m_bytes (float_of_int (Buffer.length b));
    Ok (Buffer.length b)
  with
  | Sys_error msg -> fail msg
  | Unix.Unix_error (e, fn, arg) ->
    fail (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))
