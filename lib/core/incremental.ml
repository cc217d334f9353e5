module Subject = Cals_netlist.Subject
module Library = Cals_cell.Library
module Geom = Cals_util.Geom
module Fnv = Cals_util.Tables.Fnv64
module Span = Cals_telemetry.Span
module Metrics = Cals_telemetry.Metrics

let m_hits =
  Metrics.counter ~help:"Tree match sets served from the incremental cache"
    "mapper_cache_hit"

let m_misses =
  Metrics.counter
    ~help:"Tree match sets enumerated from scratch by the incremental engine"
    "mapper_cache_miss"

let m_matches =
  Metrics.counter ~help:"Pattern matches evaluated by the tree coverer"
    "mapper_matches_evaluated"

let m_runs = Metrics.counter ~help:"Technology-mapping runs" "mapper_runs"

type stats = {
  trees : int;
  hits : int;
  misses : int;
  maps : int;
}

type lookups = { mutable tree_hits : int; mutable tree_misses : int }

type tree = {
  nodes : int array;  (** Live gates of the tree, increasing node order. *)
  fp : int64;
}

type session = {
  subject : Subject.t;
  library : Library.t;
  positions : Geom.point array;
  options : Mapper.options;
  partition : Partition.t;
  trees : tree array;
  table : Matches.table;
      (** The session's candidates: a tree is cached once its live gates
          are in it. Outside a store load, a tree is in it whole or not
          at all. *)
  by_fp : (int64, int) Hashtbl.t;  (** Tree index per fingerprint. *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  maps : int Atomic.t;
  route_session : Cals_route.Router.Session.t;
}

let is_gate subject v =
  match subject.Subject.gates.(v) with
  | Subject.Pi _ -> false
  | Subject.Inv _ | Subject.Nand2 _ -> true

(* Fingerprint of one tree: node ids, gate kinds, fanins and father edges.
   Any structural change to the tree — or to how the partition carved it
   out — lands in the hash, so a stale cache entry can never be served for
   a different tree shape. *)
let tree_fingerprint subject (partition : Partition.t) ~root ~nodes =
  let h = ref (Fnv.int Fnv.empty root) in
  Array.iter
    (fun v ->
      h := Fnv.int !h v;
      (match subject.Subject.gates.(v) with
      | Subject.Pi i -> h := Fnv.int (Fnv.int !h 0) i
      | Subject.Inv a -> h := Fnv.int (Fnv.int !h 1) a
      | Subject.Nand2 (a, b) -> h := Fnv.int (Fnv.int (Fnv.int !h 2) a) b);
      h :=
        Fnv.int !h
          (match partition.Partition.father.(v) with
          | None -> -1
          | Some u -> u))
    nodes;
  !h

let trees_of subject (partition : Partition.t) =
  let n = Subject.num_nodes subject in
  let root_of = Array.make n (-1) in
  let rec find v =
    if root_of.(v) >= 0 then root_of.(v)
    else begin
      let r =
        match partition.Partition.father.(v) with
        | None -> v
        | Some u -> find u
      in
      root_of.(v) <- r;
      r
    end
  in
  let members = Hashtbl.create 64 in
  (* Walk downward so each per-root list comes out in increasing order. *)
  for v = n - 1 downto 0 do
    if partition.Partition.live.(v) && is_gate subject v then begin
      let r = find v in
      Hashtbl.replace members r
        (v :: Option.value ~default:[] (Hashtbl.find_opt members r))
    end
  done;
  partition.Partition.roots
  |> List.map (fun root ->
         let nodes =
           Array.of_list
             (Option.value ~default:[] (Hashtbl.find_opt members root))
         in
         { nodes; fp = tree_fingerprint subject partition ~root ~nodes })
  |> Array.of_list

let create ?options ~subject ~library ~positions () =
  let options =
    match options with
    | Some o -> o
    | None -> Mapper.congestion_aware ~k:0.0
  in
  Span.with_ ~cat:"map" "incremental.create" @@ fun () ->
  let partition =
    Span.with_ ~cat:"map" "mapper.partition" @@ fun () ->
    Partition.run options.Mapper.strategy subject ~positions
      ~distance:options.Mapper.distance
  in
  let trees = trees_of subject partition in
  let by_fp = Hashtbl.create (Array.length trees) in
  Array.iteri (fun i t -> Hashtbl.replace by_fp t.fp i) trees;
  {
    subject;
    library;
    positions;
    options;
    partition;
    trees;
    table = Matches.create subject ~library;
    by_fp;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    maps = Atomic.make 0;
    route_session = Cals_route.Router.Session.create ();
  }

let in_table session t = Matches.mem session.table t.nodes.(0)

(* Enumerate one tree into [table] with one walker, counted as a miss. *)
let enumerate_tree session table t =
  Atomic.incr session.misses;
  Metrics.incr m_misses;
  Array.iter
    (Matches.add_node (Matches.walker table ~partition:session.partition))
    t.nodes

(* The table one map reads, counting one hit or miss per tree. Once every
   tree is cached that is the session's own; otherwise the missing trees
   are enumerated into a copy that the call drops, so [map] never writes
   the session and domains may share it without a lock. *)
let map_table session lookups =
  let ntrees = Array.length session.trees in
  let count hits =
    Option.iter
      (fun l ->
        l.tree_hits <- l.tree_hits + hits;
        l.tree_misses <- l.tree_misses + ntrees - hits)
      lookups
  in
  if Array.for_all (in_table session) session.trees then begin
    ignore (Atomic.fetch_and_add session.hits ntrees);
    Metrics.add m_hits ntrees;
    count ntrees;
    session.table
  end
  else begin
    let scratch = Matches.copy session.table in
    let hits = ref 0 in
    Array.iter
      (fun t ->
        if in_table session t then begin
          incr hits;
          Atomic.incr session.hits;
          Metrics.incr m_hits
        end
        else enumerate_tree session scratch t)
      session.trees;
    count !hits;
    scratch
  end

let map ?(verify = false) ?(t = 0.0) ?lookups session ~k =
  Span.with_ ~cat:"map" ~meta:(Printf.sprintf "K=%g" k) "mapper.map"
  @@ fun () ->
  Atomic.incr session.maps;
  Metrics.incr m_runs;
  let table = map_table session lookups in
  let { Mapper.wire_scale; distance; incremental_update; include_wire2;
        transitive_wire; _ } =
    session.options
  in
  let cover =
    Span.with_ ~cat:"map" "mapper.cover" @@ fun () ->
    Cover.run table ~partition:session.partition ~positions:session.positions
      { Cover.k = k *. wire_scale; t; distance; incremental_update;
        include_wire2; transitive_wire }
  in
  let extraction =
    Span.with_ ~cat:"map" "mapper.extract" @@ fun () -> Cover.extract cover
  in
  if verify then
    Cals_verify.Check.record ~stage:"cover"
      (Cover.check_coverage cover extraction);
  let mapped = extraction.Cover.mapped in
  Metrics.add m_matches (Cover.matches_evaluated cover);
  let stats =
    {
      Mapper.cells = Cals_netlist.Mapped.num_cells mapped;
      cell_area = Cals_netlist.Mapped.total_area mapped;
      matches_evaluated = Cover.matches_evaluated cover;
      duplicated_gates = extraction.Cover.duplicated_gates;
      taps = extraction.Cover.taps;
    }
  in
  { Mapper.mapped; stats; cover }

let warm session =
  Span.with_ ~cat:"map" "incremental.warm" @@ fun () ->
  Array.iter
    (fun t ->
      if not (in_table session t) then enumerate_tree session session.table t)
    session.trees

let stats session =
  {
    trees = Array.length session.trees;
    hits = Atomic.get session.hits;
    misses = Atomic.get session.misses;
    maps = Atomic.get session.maps;
  }

let library session = session.library
let route_session session = session.route_session

let table session = session.table
let partition session = session.partition

let cached session =
  List.filter (in_table session) (Array.to_list session.trees)
  |> List.map (fun t -> (t.fp, t.nodes))

let missing session fp =
  match Hashtbl.find_opt session.by_fp fp with
  | Some i when not (in_table session session.trees.(i)) ->
    Some session.trees.(i).nodes
  | Some _ | None -> None
