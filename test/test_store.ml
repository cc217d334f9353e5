(* The persistent match-cache store: a warmed session's matches must
   round-trip through the on-disk format bit-identically (qcheck over
   random workloads), and every damaged file — truncated, bit-flipped,
   version-bumped, mis-keyed — must degrade to a counted cold miss that
   leaves the session perfectly usable, never an exception. *)

module Incremental = Cals_core.Incremental
module Mapper = Cals_core.Mapper
module Store = Cals_serve.Store
module Metrics = Cals_telemetry.Metrics
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Fuzz = Cals_verify.Fuzz
module Gen = Cals_workload.Gen
module Rng = Cals_util.Rng

let lib = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry lib

(* Counters are no-ops while the probe is disabled; the whole point here
   is asserting them. *)
let () = Cals_telemetry.Probe.enable ()

(* ---------------- workload substrate ---------------- *)

let session_of ~family ~seed ~inputs ~outputs ~size =
  let net = Gen.of_fuzz ~family ~seed ~inputs ~outputs ~size in
  Cals_logic.Network.sweep net;
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (max 1 (Subject.num_gates subject)) *. 5.0)
      ~utilization:0.45 ~aspect:1.0 ~geometry
  in
  let positions =
    Placement.place_subject subject ~floorplan ~rng:(Rng.create (seed + 1))
  in
  fun () -> Incremental.create ~subject ~library:lib ~positions ()

let mapped_identical (a : Mapped.t) (b : Mapped.t) =
  a.Mapped.pi_names = b.Mapped.pi_names
  && a.Mapped.outputs = b.Mapped.outputs
  && Array.length a.Mapped.instances = Array.length b.Mapped.instances
  && Array.for_all2
       (fun (x : Mapped.instance) (y : Mapped.instance) ->
         x.Mapped.cell.Cals_cell.Cell.name = y.Mapped.cell.Cals_cell.Cell.name
         && x.Mapped.fanins = y.Mapped.fanins
         && x.Mapped.seed = y.Mapped.seed)
       a.Mapped.instances b.Mapped.instances

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cals-store-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let counter name =
  let s = Metrics.snapshot () in
  match
    List.find_opt (fun c -> c.Metrics.c_name = name) s.Metrics.counters
  with
  | Some c -> c.Metrics.c_value
  | None -> 0

(* ---------------- an independent v1 writer ---------------- *)

(* The store's payload layout (see store.mli), written by the test from
   its own records: the file [Store.save] writes must be byte for byte
   the one this writer makes from the session's candidates, and a test
   can hand [Store.load] a well-formed, correctly checksummed file whose
   entries disagree with the session. *)

module Matches = Cals_core.Matches

type candidate = {
  cell : string;
  leaves : int array;
  covered : int list;
}

type node = {
  enumerated : int;
  candidates : candidate array;
}

(* Per cached tree, its fingerprint and per live gate its candidates,
   read off the session's table. *)
let entries_of session =
  let t = Incremental.table session in
  let candidate c =
    let l0 = t.Matches.leaf_first.(c) and c0 = t.Matches.cov_first.(c) in
    {
      cell = t.Matches.cells.(t.Matches.cell.(c)).Cals_cell.Cell.name;
      leaves = Array.sub t.Matches.leaves l0 (t.Matches.leaf_first.(c + 1) - l0);
      covered =
        List.init (t.Matches.cov_first.(c + 1) - c0) (fun j ->
            t.Matches.covered.(c0 + j));
    }
  in
  List.map
    (fun (fp, nodes) ->
      ( fp,
        Array.to_list nodes
        |> List.map (fun v ->
               ( v,
                 {
                   enumerated = t.Matches.enumerated.(v);
                   candidates =
                     Array.init (t.Matches.stop.(v) - t.Matches.first.(v))
                       (fun i -> candidate (t.Matches.first.(v) + i));
                 } )) ))
    (Incremental.cached session)

let header_len = 8 + 4 + 8 + 8

let add_int b i = Buffer.add_int32_le b (Int32.of_int i)

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let payload_of_entries ~key entries =
  let b = Buffer.create 4096 in
  add_str b key;
  add_str b (Cals_cell.Library.name lib);
  add_int b (List.length entries);
  List.iter
    (fun (fp, nodes) ->
      Buffer.add_int64_le b fp;
      add_int b (List.length nodes);
      List.iter
        (fun (v, nm) ->
          add_int b v;
          add_int b nm.enumerated;
          add_int b (Array.length nm.candidates);
          Array.iter
            (fun c ->
              add_str b c.cell;
              add_int b (Array.length c.leaves);
              Array.iter (add_int b) c.leaves;
              add_int b (List.length c.covered);
              List.iter (add_int b) c.covered)
            nm.candidates)
        nodes)
    entries;
  Buffer.contents b

let file_of_payload payload =
  let b = Buffer.create (header_len + String.length payload) in
  Buffer.add_string b "CALS-MCS";
  add_int b Store.version;
  Buffer.add_int64_le b
    (Cals_util.Tables.Fnv64.string Cals_util.Tables.Fnv64.empty payload);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* Whether a session holds no candidates and no cached tree: what a cold
   load must leave. *)
let untouched session =
  (Incremental.table session).Matches.count = 0
  && Incremental.cached session = []

(* ---------------- qcheck round-trip ---------------- *)

let workload_arb =
  QCheck.make
    ~print:(fun (f, s, i, o, z) ->
      Printf.sprintf "family=%s seed=%d inputs=%d outputs=%d size=%d"
        (match f with `Pla -> "pla" | `Multilevel -> "multilevel")
        s i o z)
    QCheck.Gen.(
      let* family = oneofl [ `Pla; `Multilevel ] in
      let* seed = 0 -- 1000 in
      let* inputs = 4 -- 8 in
      let* outputs = 2 -- 4 in
      let* size = 8 -- 24 in
      return (family, seed, inputs, outputs, size))

(* Warm a session, save it, load it into a fresh session of the
   same design: every tree preloads, the store reports a hit, and
   mapping from the preloaded cache is bit-identical to mapping from
   the warmed one — with zero cache misses. *)
let store_roundtrip =
  QCheck.Test.make ~count:25 ~name:"store round-trip is warm and identical"
    workload_arb (fun (family, seed, inputs, outputs, size) ->
      let make = session_of ~family ~seed ~inputs ~outputs ~size in
      let dir = fresh_dir () in
      let key = Printf.sprintf "rt-%d-%d" seed size in
      let warmed = make () in
      Incremental.warm warmed;
      (match Store.save ~dir ~key warmed with
      | Ok bytes ->
        if bytes <= 28 then
          QCheck.Test.fail_reportf "saved only %d bytes" bytes
      | Error e -> QCheck.Test.fail_reportf "save failed: %s" e);
      if
        not
          (String.equal
             (read_file (Store.path ~dir ~key))
             (file_of_payload (payload_of_entries ~key (entries_of warmed))))
      then
        QCheck.Test.fail_reportf
          "the saved file is not the test writer's version-1 file";
      let trees = (Incremental.stats warmed).Incremental.trees in
      let hits0 = counter "serve_cache_store_hit" in
      let loaded = make () in
      (match Store.load ~dir ~key loaded with
      | Store.Loaded n when n = trees -> ()
      | Store.Loaded n ->
        QCheck.Test.fail_reportf "preloaded %d of %d trees" n trees
      | Store.Cold _ -> QCheck.Test.fail_reportf "unexpected cold load");
      if counter "serve_cache_store_hit" <> hits0 + 1 then
        QCheck.Test.fail_reportf "hit counter did not advance";
      let a = Incremental.map warmed ~k:4.0 in
      let b = Incremental.map loaded ~k:4.0 in
      if not (mapped_identical a.Mapper.mapped b.Mapper.mapped) then
        QCheck.Test.fail_reportf "preloaded map differs from warmed map";
      if a.Mapper.stats <> b.Mapper.stats then
        QCheck.Test.fail_reportf "mapper stats differ";
      let s = Incremental.stats loaded in
      if s.Incremental.misses <> 0 then
        QCheck.Test.fail_reportf "preloaded session missed %d times"
          s.Incremental.misses;
      if s.Incremental.hits = 0 then
        QCheck.Test.fail_reportf "preloaded session never hit";
      true)

(* ---------------- deterministic damage battery ---------------- *)

let flip data pos =
  let b = Bytes.of_string data in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  Bytes.to_string b

(* Every damaged file must load as a *counted* cold miss — no exception
   — and leave the session fully usable: warming it afterwards must
   reproduce the undamaged mapping bit-for-bit. *)
let test_damage_degrades_to_cold_miss () =
  let make = session_of ~family:`Pla ~seed:11 ~inputs:6 ~outputs:3 ~size:14 in
  let dir = fresh_dir () in
  let key = "damage" in
  let warmed = make () in
  Incremental.warm warmed;
  (match Store.save ~dir ~key warmed with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  let reference = (Incremental.map warmed ~k:4.0).Mapper.mapped in
  let file = Store.path ~dir ~key in
  let good = read_file file in
  let header_len = 8 + 4 + 8 + 8 in
  let cases =
    [
      ("empty file", "", `Corrupt);
      ("truncated header", String.sub good 0 10, `Corrupt);
      ( "truncated payload",
        String.sub good 0 (header_len + ((String.length good - header_len) / 2)),
        `Corrupt );
      ("flipped magic", flip good 0, `Corrupt);
      ("version bump", flip good 8, `Version_skew);
      ("flipped payload byte", flip good (header_len + 5), `Corrupt);
      ("payload tail flip", flip good (String.length good - 1), `Corrupt);
    ]
  in
  List.iter
    (fun (name, data, expect) ->
      write_file file data;
      let corrupt0 = counter "serve_cache_store_corrupt" in
      let session = make () in
      (match (Store.load ~dir ~key session, expect) with
      | Store.Cold (Store.Corrupt _), `Corrupt -> ()
      | Store.Cold (Store.Version_skew v), `Version_skew ->
        Alcotest.(check bool)
          (name ^ ": skewed version is not ours")
          true (v <> Store.version)
      | Store.Cold other, _ ->
        Alcotest.failf "%s: wrong cold reason %s" name
          (match other with
          | Store.Absent -> "absent"
          | Store.Corrupt w -> "corrupt " ^ w
          | Store.Version_skew v -> Printf.sprintf "version %d" v
          | Store.Key_mismatch -> "key mismatch")
      | Store.Loaded n, _ -> Alcotest.failf "%s: loaded %d entries" name n);
      Alcotest.(check int)
        (name ^ ": corrupt counter advanced")
        (corrupt0 + 1)
        (counter "serve_cache_store_corrupt");
      Alcotest.(check bool)
        (name ^ ": the session is as cold as it was")
        true (untouched session);
      Alcotest.(check bool)
        (name ^ ": an unwarmed map is a cold session's")
        true
        (mapped_identical reference (Incremental.map session ~k:4.0).Mapper.mapped);
      (* The cold miss is survivable: warming still works, identically. *)
      Incremental.warm session;
      Alcotest.(check bool)
        (name ^ ": session still maps identically")
        true
        (mapped_identical reference (Incremental.map session ~k:4.0).Mapper.mapped))
    cases;
  (* A structurally valid file under the wrong key is a key mismatch
     (fingerprint collision paranoia), not a warm load. *)
  write_file file good;
  let other = Store.path ~dir ~key:"other" in
  write_file other good;
  let session = make () in
  (match Store.load ~dir ~key:"other" session with
  | Store.Cold Store.Key_mismatch -> ()
  | _ -> Alcotest.fail "mis-keyed file must report Key_mismatch");
  (* And a missing file is a plain miss on the miss counter. *)
  let miss0 = counter "serve_cache_store_miss" in
  (match Store.load ~dir:(fresh_dir ()) ~key session with
  | Store.Cold Store.Absent -> ()
  | _ -> Alcotest.fail "empty dir must load Cold Absent");
  Alcotest.(check int) "miss counter advanced" (miss0 + 1)
    (counter "serve_cache_store_miss")

(* Saving is atomic enough for concurrent writers: the tmp file never
   survives, and a load right after a save always sees a whole file. *)
let test_save_then_load_immediately () =
  let make = session_of ~family:`Pla ~seed:5 ~inputs:5 ~outputs:2 ~size:10 in
  let dir = fresh_dir () in
  let warmed = make () in
  Incremental.warm warmed;
  (match Store.save ~dir ~key:"atomic" warmed with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  Alcotest.(check bool) "no tmp litter" true
    (Sys.readdir dir |> Array.for_all (fun f -> Filename.extension f = ".mcs"));
  let loaded = make () in
  match Store.load ~dir ~key:"atomic" loaded with
  | Store.Loaded n -> Alcotest.(check bool) "entries preloaded" true (n > 0)
  | Store.Cold _ -> Alcotest.fail "fresh save must load warm"

let test_unwritable_dir_is_an_error () =
  let warmed =
    session_of ~family:`Pla ~seed:7 ~inputs:5 ~outputs:2 ~size:10 ()
  in
  Incremental.warm warmed;
  let file = Filename.temp_file "cals-store-test" ".notadir" in
  match Store.save ~dir:(Filename.concat file "sub") ~key:"x" warmed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "saving under a file must fail gracefully"

(* ---------------- files that pass their checksum ---------------- *)

(* A saved store of a small design, the entries it holds, and the netlist
   a cold session of that design maps at K = 4. *)
type saved = {
  make : unit -> Incremental.session;
  dir : string;
  key : string;
  good : string;  (** The saved file. *)
  entries : (int64 * (int * node) list) list;
  reference : Mapped.t;
}

let saved ~key make =
  let dir = fresh_dir () in
  let warmed = make () in
  Incremental.warm warmed;
  (match Store.save ~dir ~key warmed with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  {
    make;
    dir;
    key;
    good = read_file (Store.path ~dir ~key);
    entries = entries_of warmed;
    reference = (Incremental.map (make ()) ~k:4.0).Mapper.mapped;
  }

(* An entry that lists the wrong nodes, or candidates that are no match
   at their node, is skipped on its own: the file loads every other
   tree, and the map neither raises nor differs from a cold session's.
   Before entries were checked, out-of-range node ids raised
   [Invalid_argument] in the cover and swapped ones [Stack_overflow] in
   the extraction. *)
let test_inconsistent_entries_are_skipped () =
  let st =
    saved ~key:"inconsistent"
      (session_of ~family:`Pla ~seed:11 ~inputs:6 ~outputs:3 ~size:14)
  in
  Alcotest.(check bool)
    "the test writer reproduces the saved file" true
    (String.equal st.good
       (file_of_payload (payload_of_entries ~key:st.key st.entries)));
  let trees = List.length st.entries in
  let target =
    Option.get
      (List.find_index (fun (_, nodes) -> List.length nodes >= 2) st.entries)
  in
  let damage name f =
    let entries =
      List.mapi
        (fun i (fp, nodes) -> if i = target then (fp, f nodes) else (fp, nodes))
        st.entries
    in
    write_file
      (Store.path ~dir:st.dir ~key:st.key)
      (file_of_payload (payload_of_entries ~key:st.key entries));
    let session = st.make () in
    (match Store.load ~dir:st.dir ~key:st.key session with
    | Store.Loaded n ->
      Alcotest.(check int) (name ^ ": every other tree installed") (trees - 1) n
    | Store.Cold _ -> Alcotest.failf "%s: cold load" name);
    let r = Incremental.map session ~k:4.0 in
    Alcotest.(check bool)
      (name ^ ": maps as a cold session")
      true
      (mapped_identical st.reference r.Mapper.mapped)
  in
  (* Rewrite the first candidate of the tree's first node. *)
  let first_candidate f = function
    | (v, nm) :: rest ->
      let candidates = Array.copy nm.candidates in
      candidates.(0) <- f candidates.(0);
      (v, { nm with candidates }) :: rest
    | [] -> []
  in
  damage "node ids out of range"
    (List.map (fun (v, nm) -> (v + 100_000, nm)));
  damage "node ids swapped" (function
    | (v1, nm1) :: (v2, nm2) :: rest -> (v2, nm1) :: (v1, nm2) :: rest
    | nodes -> nodes);
  damage "node missing" List.tl;
  damage "no candidates" (function
    | (v, nm) :: rest -> (v, { nm with candidates = [||] }) :: rest
    | [] -> []);
  damage "leaf out of range"
    (first_candidate (fun c ->
         let leaves = Array.copy c.leaves in
         leaves.(0) <- 100_000;
         { c with leaves }));
  damage "leaf at its own node"
    (fun nodes ->
      let v = fst (List.hd nodes) in
      first_candidate
        (fun c -> { c with leaves = Array.map (fun _ -> v) c.leaves })
        nodes);
  damage "leaf count not the arity"
    (first_candidate (fun c -> { c with leaves = Array.append c.leaves [| 0 |] }));
  damage "covered gate outside the tree"
    (first_candidate (fun c ->
         { c with covered = c.covered @ [ 0 ] }))

(* A file whose every tree checks but whose payload then goes wrong is
   corrupt as a whole: the trees it filled are dropped again and the
   session is exactly as cold as before the load. *)
let test_bad_tail_rolls_back () =
  let st =
    saved ~key:"bad-tail"
      (session_of ~family:`Pla ~seed:11 ~inputs:6 ~outputs:3 ~size:14)
  in
  let payload = payload_of_entries ~key:st.key st.entries in
  List.iter
    (fun (name, payload) ->
      write_file (Store.path ~dir:st.dir ~key:st.key) (file_of_payload payload);
      let session = st.make () in
      (match Store.load ~dir:st.dir ~key:st.key session with
      | Store.Cold (Store.Corrupt _) -> ()
      | Store.Cold _ | Store.Loaded _ ->
        Alcotest.failf "%s: not refused as corrupt" name);
      Alcotest.(check bool)
        (name ^ ": the session is as cold as it was")
        true (untouched session);
      Alcotest.(check bool)
        (name ^ ": maps as a cold session")
        true
        (mapped_identical st.reference
           (Incremental.map session ~k:4.0).Mapper.mapped);
      Incremental.warm session;
      Alcotest.(check bool)
        (name ^ ": warms and maps as a cold session")
        true
        (mapped_identical st.reference
           (Incremental.map session ~k:4.0).Mapper.mapped))
    [
      ("trailing bytes", payload ^ "\000");
      ( "unknown cell in the last tree",
        let entries =
          List.mapi
            (fun i (fp, nodes) ->
              if i < List.length st.entries - 1 then (fp, nodes)
              else
                ( fp,
                  List.map
                    (fun (v, nm) ->
                      ( v,
                        { nm with
                          candidates =
                            Array.map
                              (fun c -> { c with cell = "NO-SUCH-CELL" })
                              nm.candidates } ))
                    nodes ))
            st.entries
        in
        payload_of_entries ~key:st.key entries );
    ]

(* A save that fails leaves no temp file behind: here the target path is
   a directory, so the rename fails after the temp file is written. *)
let test_failed_save_leaves_no_temp_file () =
  let warmed =
    session_of ~family:`Pla ~seed:7 ~inputs:5 ~outputs:2 ~size:10 ()
  in
  Incremental.warm warmed;
  let dir = fresh_dir () in
  Unix.mkdir (Store.path ~dir ~key:"x") 0o755;
  (match Store.save ~dir ~key:"x" warmed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "saving onto a directory must fail");
  Alcotest.(check (list string))
    "only the occupying directory is left"
    [ Filename.basename (Store.path ~dir ~key:"x") ]
    (Array.to_list (Sys.readdir dir))

(* A count larger than the bytes left is refused before anything is sized
   by it: each of the five counts set to 2^31 - 1 reads as corrupt. *)
let test_huge_counts_are_corrupt () =
  let make = session_of ~family:`Pla ~seed:5 ~inputs:5 ~outputs:2 ~size:10 in
  let dir = fresh_dir () and key = "huge" in
  let huge = 0x7fff_ffff in
  let prefix ints =
    let b = Buffer.create 64 in
    add_str b key;
    add_str b (Cals_cell.Library.name lib);
    List.iter
      (function
        | `I i -> add_int b i
        | `L l -> Buffer.add_int64_le b l
        | `S s -> add_str b s)
      ints;
    Buffer.contents b
  in
  let node = [ `I 1; `L 0L; `I 1; `I 0; `I 1 ] in
  List.iter
    (fun (name, payload) ->
      write_file (Store.path ~dir ~key) (file_of_payload payload);
      match Store.load ~dir ~key (make ()) with
      | Store.Cold (Store.Corrupt _) -> ()
      | Store.Cold _ | Store.Loaded _ ->
        Alcotest.failf "%s: a huge count was not refused as corrupt" name)
    [
      ("entry count", prefix [ `I huge ]);
      ("node count", prefix [ `I 1; `L 0L; `I huge ]);
      ("candidate count", prefix [ `I 1; `L 0L; `I 1; `I 0; `I 1; `I huge ]);
      ("leaf count", prefix (node @ [ `S "INV"; `I huge ]));
      ("covered count", prefix (node @ [ `S "INV"; `I 1; `I 0; `I huge ]));
    ]

(* Byte mutations of a saved file, raw or with the checksum recomputed so
   that they reach the parser and [preload]: [Store.load] returns and
   never raises, and a map after [Loaded] neither raises nor yields
   another netlist than a cold session's. *)
let fuzz_store =
  lazy
    (saved ~key:"fuzz"
       (session_of ~family:`Multilevel ~seed:3 ~inputs:6 ~outputs:3 ~size:16))

let mutation_arb =
  QCheck.make
    ~print:(fun (rechecksum, edits) ->
      Printf.sprintf "rechecksum=%b edits=[%s]" rechecksum
        (String.concat "; "
           (List.map (fun (p, c) -> Printf.sprintf "%d:%d" p c) edits)))
    QCheck.Gen.(
      pair bool (list_size (1 -- 4) (pair (0 -- 1_000_000) (0 -- 255))))

let mutate data edits =
  let b = Bytes.of_string data in
  List.iter
    (fun (p, c) -> Bytes.set b (p mod Bytes.length b) (Char.chr c))
    edits;
  Bytes.to_string b

let store_fuzz =
  QCheck.Test.make ~count:300 ~name:"byte-mutated store loads or stays cold"
    mutation_arb (fun (rechecksum, edits) ->
      let st = Lazy.force fuzz_store in
      let data =
        if rechecksum then
          file_of_payload
            (mutate
               (String.sub st.good header_len
                  (String.length st.good - header_len))
               edits)
        else mutate st.good edits
      in
      write_file (Store.path ~dir:st.dir ~key:st.key) data;
      let session = st.make () in
      match Store.load ~dir:st.dir ~key:st.key session with
      | exception e ->
        QCheck.Test.fail_reportf "load raised %s" (Printexc.to_string e)
      | Store.Cold _ ->
        if not (untouched session) then
          QCheck.Test.fail_reportf "a cold load left candidates behind";
        mapped_identical st.reference (Incremental.map session ~k:4.0).Mapper.mapped
        || QCheck.Test.fail_reportf "map after Cold differs from cold"
      | Store.Loaded _ -> (
        match Incremental.map session ~k:4.0 with
        | exception e ->
          QCheck.Test.fail_reportf "map after Loaded raised %s"
            (Printexc.to_string e)
        | r ->
          mapped_identical st.reference r.Mapper.mapped
          || QCheck.Test.fail_reportf "map after Loaded differs from cold"))

let () =
  Alcotest.run "store"
    [
      ( "roundtrip",
        [ QCheck_alcotest.to_alcotest ~long:false store_roundtrip ] );
      ( "damage",
        [
          Alcotest.test_case "degrades-to-cold-miss" `Quick
            test_damage_degrades_to_cold_miss;
          Alcotest.test_case "atomic-save" `Quick
            test_save_then_load_immediately;
          Alcotest.test_case "unwritable-dir" `Quick
            test_unwritable_dir_is_an_error;
          Alcotest.test_case "inconsistent-entries-skipped" `Quick
            test_inconsistent_entries_are_skipped;
          Alcotest.test_case "huge-counts-corrupt" `Quick
            test_huge_counts_are_corrupt;
          Alcotest.test_case "bad tail rolls back every tree" `Quick
            test_bad_tail_rolls_back;
          Alcotest.test_case "failed save leaves no temp file" `Quick
            test_failed_save_leaves_no_temp_file;
        ] );
      ("fuzz", [ QCheck_alcotest.to_alcotest ~long:false store_fuzz ]);
    ]
