module Incremental = Cals_core.Incremental
module Matches = Cals_core.Matches
module Library = Cals_cell.Library
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

let payload_of ~key session =
  let b = Buffer.create 65536 in
  add_str b key;
  add_str b (Library.name (Incremental.library session));
  let entries = Incremental.export session in
  add_int b (List.length entries);
  List.iter
    (fun (fp, nodes) ->
      Buffer.add_int64_le b fp;
      add_int b (List.length nodes);
      List.iter
        (fun (v, (nm : Matches.node_matches)) ->
          add_int b v;
          add_int b nm.Matches.enumerated;
          add_int b (Array.length nm.Matches.candidates);
          Array.iter
            (fun (c : Matches.candidate) ->
              add_str b c.Matches.cand_cell.Cals_cell.Cell.name;
              add_int b (Array.length c.Matches.cand_leaves);
              Array.iter (add_int b) c.Matches.cand_leaves;
              add_int b (List.length c.Matches.cand_covered);
              List.iter (add_int b) c.Matches.cand_covered)
            nm.Matches.candidates)
        nodes)
    entries;
  Buffer.contents b

(* -- parsing ------------------------------------------------------------ *)

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

let parse_payload ~key ~library data =
  let cur = { data; pos = 0 } in
  let file_key = get_str cur "design key" in
  if file_key <> key then raise (Bad "key");
  let lib_name = get_str cur "library name" in
  if lib_name <> Library.name library then
    raise (Bad (Printf.sprintf "library %S" lib_name));
  let cell name =
    match Library.find_opt library name with
    | Some c -> c
    | None -> raise (Bad (Printf.sprintf "unknown cell %S" name))
  in
  let n_entries = get_count cur "entry count" in
  let entries =
    List.init n_entries (fun _ ->
        let fp = get_int64 cur "fingerprint" in
        let n_nodes = get_count cur "node count" in
        let nodes =
          List.init n_nodes (fun _ ->
              let v = get_int cur "node id" in
              let enumerated = get_int cur "enumerated" in
              let n_cands = get_count cur "candidate count" in
              (* Candidates are read back in exactly the order they were
                 enumerated in; the DP's tie-breaking depends on it. *)
              let candidates =
                Array.init n_cands (fun _ ->
                    let cand_cell = cell (get_str cur "cell name") in
                    let n_leaves = get_count cur "leaf count" in
                    let cand_leaves =
                      Array.init n_leaves (fun _ -> get_int cur "leaf")
                    in
                    let n_cov = get_count cur "covered count" in
                    let cand_covered =
                      List.init n_cov (fun _ -> get_int cur "covered")
                    in
                    { Matches.cand_cell; cand_leaves; cand_covered })
              in
              (v, { Matches.candidates; enumerated }))
        in
        (fp, nodes))
  in
  if cur.pos <> String.length data then raise (Bad "trailing bytes");
  entries

(* -- load/save ---------------------------------------------------------- *)

let header_len = 8 + 4 + 8 + 8

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ~dir ~key session =
  let file = path ~dir ~key in
  let cold reason =
    (match reason with
    | Absent -> Metrics.incr m_miss
    | Corrupt _ | Version_skew _ | Key_mismatch -> Metrics.incr m_corrupt);
    Cold reason
  in
  if not (Sys.file_exists file) then cold Absent
  else
    match
      let data = read_file file in
      if String.length data < header_len then Cold (Corrupt "header")
      else if String.sub data 0 8 <> magic then Cold (Corrupt "magic")
      else
        let v = Int32.to_int (String.get_int32_le data 8) in
        if v <> version then Cold (Version_skew v)
        else
          let chksum = String.get_int64_le data 12 in
          let plen = Int64.to_int (String.get_int64_le data 20) in
          if plen < 0 || header_len + plen <> String.length data then
            Cold (Corrupt "length")
          else
            let payload = String.sub data header_len plen in
            if Fnv.string Fnv.empty payload <> chksum then
              Cold (Corrupt "checksum")
            else begin
              match
                parse_payload ~key
                  ~library:(Incremental.library session)
                  payload
              with
              | exception Bad "key" -> Cold Key_mismatch
              | exception Bad what -> Cold (Corrupt what)
              | entries -> Loaded (Incremental.preload session entries)
            end
    with
    | Loaded 0 -> cold Absent
    | Loaded n ->
      Metrics.incr m_hit;
      Loaded n
    | Cold reason -> cold reason
    | exception _ -> cold (Corrupt "unreadable")

let save ~dir ~key session =
  try
    if not (Sys.file_exists dir) then Cals_util.Fsutil.mkdir_p dir;
    let payload = payload_of ~key session in
    let b = Buffer.create (header_len + String.length payload) in
    Buffer.add_string b magic;
    Buffer.add_int32_le b (Int32.of_int version);
    Buffer.add_int64_le b (Fnv.string Fnv.empty payload);
    Buffer.add_int64_le b (Int64.of_int (String.length payload));
    Buffer.add_string b payload;
    let file = path ~dir ~key in
    let tmp = Printf.sprintf "%s.%d.tmp" file (Unix.getpid ()) in
    let oc = open_out_bin tmp in
    Buffer.output_buffer oc b;
    close_out oc;
    Sys.rename tmp file;
    Metrics.incr m_saved;
    Metrics.set m_bytes (float_of_int (Buffer.length b));
    Ok (Buffer.length b)
  with
  | Sys_error msg -> Error msg
  | Unix.Unix_error (e, fn, arg) ->
    Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))
