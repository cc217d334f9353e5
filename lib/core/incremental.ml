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

type stats = {
  trees : int;
  hits : int;
  misses : int;
  maps : int;
}

type tree = {
  root : int;
  nodes : int list;  (** Live gates of the tree, increasing node order. *)
  fp : int64;
}

type session = {
  subject : Subject.t;
  library : Library.t;
  positions : Geom.point array;
  options : Mapper.options;
  partition : Partition.t;
  trees : tree array;
  cache : (int64, (int * Cover.node_matches) list) Hashtbl.t;
  lock : Mutex.t;
  sealed : bool Atomic.t;
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
  List.iter
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
         let nodes = Option.value ~default:[] (Hashtbl.find_opt members root) in
         { root; nodes; fp = tree_fingerprint subject partition ~root ~nodes })
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
  {
    subject;
    library;
    positions;
    options;
    partition;
    trees = trees_of subject partition;
    cache = Hashtbl.create 256;
    lock = Mutex.create ();
    sealed = Atomic.make false;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    maps = Atomic.make 0;
    route_session = Cals_route.Router.Session.create ();
  }

let enumerate_tree session t =
  List.map
    (fun v ->
      ( v,
        Cover.match_node session.subject ~library:session.library
          ~partition:session.partition v ))
    t.nodes

(* Look one tree up, enumerating (and, unless sealed, inserting) on miss. *)
let tree_matches session t =
  match Hashtbl.find_opt session.cache t.fp with
  | Some entries ->
    Atomic.incr session.hits;
    Metrics.incr m_hits;
    entries
  | None ->
    Atomic.incr session.misses;
    Metrics.incr m_misses;
    let entries = enumerate_tree session t in
    if not (Atomic.get session.sealed) then begin
      Mutex.lock session.lock;
      if not (Hashtbl.mem session.cache t.fp) then
        Hashtbl.add session.cache t.fp entries;
      Mutex.unlock session.lock
    end;
    entries

let assemble session =
  let ms : Cover.matchset =
    Array.make (Subject.num_nodes session.subject) None
  in
  Array.iter
    (fun t ->
      List.iter
        (fun (v, nm) -> ms.(v) <- Some nm)
        (tree_matches session t))
    session.trees;
  ms

let map ?(verify = false) ?(t = 0.0) session ~k =
  Span.with_ ~cat:"map" ~meta:(Printf.sprintf "K=%g" k) "incremental.map"
  @@ fun () ->
  Atomic.incr session.maps;
  let options = { session.options with Mapper.k; t } in
  let matchsets =
    Span.with_ ~cat:"map" "incremental.assemble" @@ fun () -> assemble session
  in
  Mapper.map ~verify ~partition:session.partition ~matchsets session.subject
    ~library:session.library ~positions:session.positions options

let warm session =
  Span.with_ ~cat:"map" "incremental.warm" @@ fun () ->
  Array.iter
    (fun t ->
      if not (Hashtbl.mem session.cache t.fp) then begin
        Atomic.incr session.misses;
        Metrics.incr m_misses;
        Hashtbl.replace session.cache t.fp (enumerate_tree session t)
      end)
    session.trees

let seal session = Atomic.set session.sealed true

let stats session =
  {
    trees = Array.length session.trees;
    hits = Atomic.get session.hits;
    misses = Atomic.get session.misses;
    maps = Atomic.get session.maps;
  }

let library session = session.library
let route_session session = session.route_session

let fingerprints session =
  Array.to_list (Array.map (fun t -> (t.root, t.fp)) session.trees)

let export session =
  Array.to_list session.trees
  |> List.filter_map (fun t ->
         Option.map
           (fun entries -> (t.fp, entries))
           (Hashtbl.find_opt session.cache t.fp))

let preload session entries =
  if Atomic.get session.sealed then
    invalid_arg "Incremental.preload: session is sealed";
  let wanted = Hashtbl.create (Array.length session.trees) in
  Array.iter (fun t -> Hashtbl.replace wanted t.fp ()) session.trees;
  let installed = ref 0 in
  Mutex.lock session.lock;
  List.iter
    (fun (fp, matches) ->
      if Hashtbl.mem wanted fp && not (Hashtbl.mem session.cache fp) then begin
        Hashtbl.add session.cache fp matches;
        incr installed
      end)
    entries;
  Mutex.unlock session.lock;
  !installed
