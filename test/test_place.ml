module Floorplan = Cals_place.Floorplan
module Hypergraph = Cals_place.Hypergraph
module Fm = Cals_place.Fm
module Ref = Cals_reference.Reference_place
module Bisect = Cals_place.Bisect
module Legalize = Cals_place.Legalize
module Placement = Cals_place.Placement
module Subject = Cals_netlist.Subject
module Rng = Cals_util.Rng
module Geom = Cals_util.Geom
module Metrics = Cals_telemetry.Metrics

let lib = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry lib

(* ------------------------- Floorplan ------------------------- *)

let test_floorplan_of_rows () =
  let fp = Floorplan.of_rows ~num_rows:10 ~sites_per_row:100 ~geometry in
  Alcotest.(check int) "rows" 10 fp.Floorplan.num_rows;
  Alcotest.(check (float 1e-6)) "width" (100.0 *. geometry.Cals_cell.Library.site_width)
    fp.Floorplan.die_width;
  Alcotest.(check (float 1e-6)) "row 0 center"
    (geometry.Cals_cell.Library.row_height /. 2.0)
    (Floorplan.row_y fp 0)

let test_floorplan_for_area () =
  let fp = Floorplan.for_area ~core_area:10000.0 ~utilization:0.5 ~aspect:1.0 ~geometry in
  let u = Floorplan.utilization fp ~cell_area:10000.0 in
  Alcotest.(check bool) "utilization near target" true (u > 0.45 && u < 0.52)

let test_floorplan_pads () =
  let fp = Floorplan.of_rows ~num_rows:20 ~sites_per_row:200 ~geometry in
  let names = Array.init 12 (fun i -> Printf.sprintf "p%d" i) in
  let pads = Floorplan.pad_positions fp ~names in
  Alcotest.(check int) "one pad per name" 12 (Array.length pads);
  Array.iter
    (fun p ->
      if not (Floorplan.contains fp p) then Alcotest.fail "pad outside die";
      let on_edge =
        p.Geom.x = 0.0 || p.Geom.y = 0.0 || p.Geom.x = fp.Floorplan.die_width
        || p.Geom.y = fp.Floorplan.die_height
      in
      if not on_edge then Alcotest.fail "pad not on perimeter")
    pads;
  (* Pads are distinct. *)
  let uniq = Array.to_list pads |> List.sort_uniq compare in
  Alcotest.(check int) "distinct" 12 (List.length uniq)

(* ------------------------- FM ------------------------- *)

(* [Fm.run] on a scratch sized to one problem: the side of every node. *)
let bipartition ~rng (p : Ref.problem) =
  let n = Array.length p.weights and m = Array.length p.nets in
  let pins = Array.fold_left (fun a net -> a + Array.length net) 0 p.nets in
  let s = Fm.scratch ~nodes:n ~nets:m ~pins in
  Array.blit p.weights 0 s.weight 0 n;
  Array.iteri (fun v l -> s.lock.(v) <- Option.value l ~default:(-1)) p.locked;
  let q = ref 0 in
  Array.iteri
    (fun e net ->
      Array.blit net 0 s.pins !q (Array.length net);
      s.net_lo.(e) <- !q;
      q := !q + Array.length net;
      s.net_hi.(e) <- !q)
    p.nets;
  Fm.run s ~rng ~nodes:n ~nets:m;
  s.side

let random_problem rng n nets_count =
  let weights = Array.make n 1 in
  let nets =
    Array.init nets_count (fun _ ->
        let d = Rng.range rng 2 4 in
        Array.of_list (Rng.sample rng d n))
  in
  { Ref.weights; nets; locked = Array.make n None }

let test_fm_balance () =
  let rng = Rng.create 42 in
  let p = random_problem rng 100 200 in
  let side = bipartition ~rng p in
  let w0 = Array.to_list side |> List.filter (fun s -> s = 0) |> List.length in
  Alcotest.(check bool)
    (Printf.sprintf "balanced (%d/100)" w0)
    true
    (w0 >= 35 && w0 <= 65)

let test_fm_respects_locks () =
  let rng = Rng.create 43 in
  let p = random_problem rng 50 100 in
  p.Ref.locked.(0) <- Some 0;
  p.Ref.locked.(1) <- Some 1;
  let side = bipartition ~rng p in
  Alcotest.(check int) "lock 0" 0 side.(0);
  Alcotest.(check int) "lock 1" 1 side.(1)

let test_fm_beats_random () =
  (* FM should cut a clustered graph far better than a random split. *)
  let rng = Rng.create 44 in
  let n = 80 in
  let weights = Array.make n 1 in
  (* Two cliques of chains with only two cross edges. *)
  let nets = ref [] in
  for i = 0 to 38 do
    nets := [| i; i + 1 |] :: !nets
  done;
  for i = 40 to 78 do
    nets := [| i; i + 1 |] :: !nets
  done;
  nets := [| 5; 45 |] :: [| 20; 60 |] :: !nets;
  let p = { Ref.weights; nets = Array.of_list !nets; locked = Array.make n None } in
  let side = bipartition ~rng p in
  let cut = Ref.cut_size p side in
  Alcotest.(check bool) (Printf.sprintf "small cut (%d)" cut) true (cut <= 6)

(* Every pass keeps its best prefix, the empty one included, so the
   result never cuts more nets than the split the passes start from. *)
let test_fm_pass_never_worsens () =
  let rng = Rng.create 45 in
  let improved = ref 0 in
  for trial = 1 to 10 do
    let p = random_problem rng 60 120 in
    let seed = Rng.int rng 1_000_000 in
    let cut = Ref.cut_size p (bipartition ~rng:(Rng.create seed) p) in
    let start = Ref.cut_size p (Ref.initial_split ~rng:(Rng.create seed) p) in
    if cut > start then
      Alcotest.failf "trial %d: cut %d above the initial split's %d" trial cut
        start;
    if cut < start then incr improved
  done;
  Alcotest.(check bool) "some run improves its initial split" true
    (!improved > 0)

let counter name =
  match
    List.find_opt
      (fun (c : Metrics.counter_value) -> c.c_name = name)
      (Metrics.snapshot ()).counters
  with
  | Some c -> c.c_value
  | None -> 0

(* Every net holds both anchors, so every net is cut whatever the free
   nodes do: the pass stops before its first move (no move can win) and
   leaves the oracle's sides. *)
let test_fm_dead_nets_exit () =
  let rng = Rng.create 46 in
  let n = 40 in
  let nets =
    Array.init 60 (fun _ ->
        Array.of_list (n :: (n + 1) :: Rng.sample rng (Rng.range rng 1 4) n))
  in
  let p =
    {
      Ref.weights = Array.init (n + 2) (fun v -> if v < n then 1 else 0);
      nets;
      locked =
        Array.init (n + 2) (fun v ->
            if v = n then Some 0 else if v = n + 1 then Some 1 else None);
    }
  in
  Cals_telemetry.Probe.enable ();
  Fun.protect ~finally:Cals_telemetry.Probe.disable (fun () ->
      let moves = counter "fm_moves" and passes = counter "fm_passes" in
      let side = bipartition ~rng:(Rng.create 47) p in
      Alcotest.(check int) "no move" moves (counter "fm_moves");
      Alcotest.(check int) "one pass" (passes + 1) (counter "fm_passes");
      Alcotest.(check (array int)) "oracle's sides"
        (Ref.bipartition ~rng:(Rng.create 47) p)
        side)

(* The flat kernel against the list-based oracle: same sides, and the
   same number of RNG draws, on problems with non-unit and zero weights,
   locked nodes, duplicate pins, and one-pin and empty nets. *)
let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let same_stream r1 r2 = Rng.bits64 r1 = Rng.bits64 r2

let prop_fm_oracle =
  QCheck.Test.make ~name:"bipartition == oracle" ~count:300 ~long_factor:10
    arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.range rng 1 40 in
      let weights = Array.init n (fun _ -> Rng.range rng 0 4) in
      let locked =
        Array.init n (fun _ ->
            match Rng.int rng 6 with 0 -> Some 0 | 1 -> Some 1 | _ -> None)
      in
      let nets =
        Array.init (Rng.range rng 0 60) (fun _ ->
            Array.init (Rng.range rng 0 6) (fun _ -> Rng.int rng n))
      in
      let p = { Ref.weights; nets; locked } in
      let r1 = Rng.create (seed + 1) and r2 = Rng.create (seed + 1) in
      bipartition ~rng:r1 p = Ref.bipartition ~rng:r2 p
      && same_stream r1 r2)

(* ------------------------- Bisect ------------------------- *)

let pla_subject seed =
  let rng = Rng.create seed in
  let net =
    Cals_workload.Gen.pla ~rng ~inputs:8 ~outputs:8 ~products:30 ~terms_lo:4
      ~terms_hi:10 ()
  in
  Cals_logic.Network.sweep net;
  Cals_logic.Decompose.subject_of_network net

let test_bisect_inside_die () =
  let subject = pla_subject 1 in
  let fp =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.6 ~aspect:1.0 ~geometry
  in
  let rng = Rng.create 7 in
  let pos = Placement.place_subject subject ~floorplan:fp ~rng in
  Alcotest.(check int) "one position per node" (Subject.num_nodes subject)
    (Array.length pos);
  Array.iter
    (fun p -> if not (Floorplan.contains fp p) then Alcotest.fail "outside die")
    pos

(* Total half-perimeter wirelength of the hypergraph's nets. *)
let hypergraph_hpwl (hg : Hypergraph.t) pos =
  Array.fold_left
    (fun acc net -> acc +. Hypergraph.span_hpwl pos net 0 (Array.length net))
    0.0 hg.Hypergraph.nets

let test_bisect_better_than_random () =
  let subject = pla_subject 2 in
  let fp =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.6 ~aspect:1.0 ~geometry
  in
  let hg, _ = Hypergraph.of_subject subject ~floorplan:fp in
  let rng = Rng.create 8 in
  let pos = Bisect.place hg ~floorplan:fp ~rng in
  let hpwl = hypergraph_hpwl hg pos in
  (* Random placement for comparison. *)
  let rng2 = Rng.create 9 in
  let random_pos =
    Array.mapi
      (fun i f ->
        match f with
        | Some p -> p
        | None ->
          ignore i;
          Geom.point
            (Rng.float rng2 fp.Floorplan.die_width)
            (Rng.float rng2 fp.Floorplan.die_height))
      hg.Hypergraph.fixed
  in
  let hpwl_random = hypergraph_hpwl hg random_pos in
  Alcotest.(check bool)
    (Printf.sprintf "bisect %.0f < random %.0f" hpwl hpwl_random)
    true (hpwl < hpwl_random)

let test_bisect_deterministic () =
  let subject = pla_subject 3 in
  let fp =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.6 ~aspect:1.0 ~geometry
  in
  let p1 = Placement.place_subject subject ~floorplan:fp ~rng:(Rng.create 5) in
  let p2 = Placement.place_subject subject ~floorplan:fp ~rng:(Rng.create 5) in
  Alcotest.(check bool) "same seed, same placement" true (p1 = p2)

(* Positions bit for bit against the oracle on random hypergraphs:
   pads anywhere on the die, zero weights, duplicate pins, one-pin nets,
   and enough nodes for several levels of bisection. *)
let prop_bisect_oracle =
  QCheck.Test.make ~name:"place == oracle" ~count:100 ~long_factor:10
    arb_seed (fun seed ->
      let rng = Rng.create seed in
      let fp =
        Floorplan.of_rows ~num_rows:(Rng.range rng 1 12)
          ~sites_per_row:(Rng.range rng 5 80) ~geometry
      in
      let n = Rng.range rng 1 150 in
      let fixed =
        Array.init n (fun _ ->
            if Rng.int rng 8 = 0 then
              Some
                (Geom.point
                   (Rng.float rng fp.Floorplan.die_width)
                   (Rng.float rng fp.Floorplan.die_height))
            else None)
      in
      let hg =
        {
          Hypergraph.weights = Array.init n (fun _ -> Rng.range rng 0 3);
          fixed;
          nets =
            Array.init (Rng.range rng 0 (2 * n)) (fun _ ->
                Array.init (Rng.range rng 1 6) (fun _ -> Rng.int rng n));
        }
      in
      let r1 = Rng.create (seed + 1) and r2 = Rng.create (seed + 1) in
      let bits (p : Geom.point) =
        (Int64.bits_of_float p.Geom.x, Int64.bits_of_float p.Geom.y)
      in
      Array.map bits (Bisect.place hg ~floorplan:fp ~rng:r1)
      = Array.map bits
          (Ref.place hg ~floorplan:fp ~rng:r2)
      && same_stream r1 r2)

(* ------------------------- Legalize ------------------------- *)

let test_legalize_no_overlap () =
  let fp = Floorplan.of_rows ~num_rows:6 ~sites_per_row:50 ~geometry in
  let rng = Rng.create 10 in
  let n = 40 in
  let widths = Array.init n (fun _ -> Rng.range rng 2 5) in
  let desired =
    Array.init n (fun _ ->
        Geom.point
          (Rng.float rng fp.Floorplan.die_width)
          (Rng.float rng fp.Floorplan.die_height))
  in
  let movable = Array.make n true in
  let r = Legalize.run ~floorplan:fp ~widths ~desired ~movable in
  (* Check row alignment and non-overlap per row. *)
  let by_row = Hashtbl.create 8 in
  Array.iteri
    (fun i p ->
      let site = geometry.Cals_cell.Library.site_width in
      let lx = p.Geom.x -. (float_of_int widths.(i) *. site /. 2.0) in
      let hx = p.Geom.x +. (float_of_int widths.(i) *. site /. 2.0) in
      if lx < -1e-6 || hx > fp.Floorplan.die_width +. 1e-6 then
        Alcotest.fail "outside row";
      let row = int_of_float (p.Geom.y /. geometry.Cals_cell.Library.row_height) in
      Alcotest.(check (float 1e-6)) "row aligned" (Floorplan.row_y fp row) p.Geom.y;
      Hashtbl.replace by_row row
        ((lx, hx) :: Option.value ~default:[] (Hashtbl.find_opt by_row row)))
    r.Legalize.positions;
  Hashtbl.iter
    (fun _ spans ->
      let sorted = List.sort compare spans in
      let rec check = function
        | (_, hx) :: ((lx2, _) :: _ as rest) ->
          if hx > lx2 +. 1e-6 then Alcotest.fail "overlap";
          check rest
        | [ _ ] | [] -> ()
      in
      check sorted)
    by_row

let test_legalize_overflow () =
  let fp = Floorplan.of_rows ~num_rows:1 ~sites_per_row:10 ~geometry in
  let widths = [| 6; 6 |] in
  let desired = [| Geom.point 0.0 0.0; Geom.point 0.0 0.0 |] in
  let movable = [| true; true |] in
  try
    ignore (Legalize.run ~floorplan:fp ~widths ~desired ~movable);
    Alcotest.fail "overflow not detected"
  with Legalize.Overflow _ -> ()

let test_legalize_keeps_fixed () =
  let fp = Floorplan.of_rows ~num_rows:4 ~sites_per_row:50 ~geometry in
  let widths = [| 0; 3 |] in
  let pad = Geom.point 0.0 7.77 in
  let desired = [| pad; Geom.point 10.0 10.0 |] in
  let movable = [| false; true |] in
  let r = Legalize.run ~floorplan:fp ~widths ~desired ~movable in
  Alcotest.(check bool) "pad untouched" true (r.Legalize.positions.(0) = pad)

let test_legalize_high_density () =
  (* 90% density must still legalize thanks to the packing fallback. *)
  let fp = Floorplan.of_rows ~num_rows:10 ~sites_per_row:100 ~geometry in
  let rng = Rng.create 12 in
  let n = 300 in
  let widths = Array.make n 3 in
  let desired =
    Array.init n (fun _ ->
        Geom.point
          (Rng.float rng fp.Floorplan.die_width)
          (Rng.float rng fp.Floorplan.die_height))
  in
  let movable = Array.make n true in
  let r = Legalize.run ~floorplan:fp ~widths ~desired ~movable in
  (* Row frontiers cover at least the placed widths (gaps allowed) and
     never exceed the row capacity. *)
  let total_fill = Array.fold_left ( + ) 0 r.Legalize.row_fill in
  Alcotest.(check bool) "frontier covers widths" true (total_fill >= n * 3);
  Array.iter
    (fun fill -> if fill > 100 then Alcotest.fail "row overfilled")
    r.Legalize.row_fill

(* ------------------------- Mapped placement ------------------------- *)

let mapped_for_tests () =
  let subject = pla_subject 4 in
  let fp =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.55 ~aspect:1.0 ~geometry
  in
  let rng = Rng.create 20 in
  let positions = Placement.place_subject subject ~floorplan:fp ~rng in
  let r = Cals_reference.Reference_mapper.map subject ~library:lib ~positions Cals_core.Mapper.min_area in
  (r.Cals_core.Mapper.mapped, fp)

let test_place_mapped_seeded () =
  let mapped, fp = mapped_for_tests () in
  let pl = Placement.place_mapped_seeded mapped ~floorplan:fp in
  Alcotest.(check int) "cell positions" (Array.length mapped.Cals_netlist.Mapped.instances)
    (Array.length pl.Placement.cell_pos);
  Alcotest.(check bool) "hpwl positive" true (pl.Placement.hpwl > 0.0);
  Array.iter
    (fun p -> if not (Floorplan.contains fp p) then Alcotest.fail "cell outside")
    pl.Placement.cell_pos

(* ------------------------- Pinned placements ------------------------- *)

(* Positions, HPWL bits and row fill of every seeded placement of the
   netlists pinned in test_core "cover pinned" on a loose, a full and an
   overfull floorplan (see Pinned_kernels). *)
let placement_pins =
  [
    (("pla 11", "congestion_aware"), "0a46f80ab3623b5bd3931211c193a9ce");
    (("pla 11", "no incremental update"), "69983b5e17097be88beee12f9fb133dd");
    (("pla 11", "no wire2"), "f50519037926e028a7821fdeca140084");
    (("pla 11", "transitive wire"), "a8d89c451f3ccd9bbfd67d7b9c643f08");
    (("pla 11", "euclidean"), "bfc4ffa97220aafe749d6682cbcb1910");
    (("pla 11", "t = 0.5"), "fe938d733635252cacd0c943dae15274");
    (("pla 21", "congestion_aware"), "8b3f0c36c976afa7c1c17264e5e56b24");
    (("pla 21", "no incremental update"), "132009239793c72f43e417e3a58d6060");
    (("pla 21", "no wire2"), "96f30ab39f2bed93ed86d426a26a513e");
    (("pla 21", "transitive wire"), "903c5c9dccf02b5a52504b4d2ad3f0db");
    (("pla 21", "euclidean"), "c02521e636b7b8e756843380dfb6b4aa");
    (("pla 21", "t = 0.5"), "432697b1ef080909ccd834bceeb17fa6");
  ]

let test_placement_pinned () =
  Pinned_kernels.check "placement" placement_pins
    Pinned_kernels.placement_digest

(* The companion placement of the benchmark's designs, built as the
   benchmark and the fuzz harness build them: the [congested] circuits
   under their placement streams, the [orchestrate] circuit, and two fuzz
   circuits. The digests hold the float bits of every position. *)
let companion_cases =
  let preset name ~scale ~utilization ~seed () =
    let net = List.assoc name Cals_workload.Presets.named ~scale ~seed:1 in
    Cals_logic.Optimize.script_light net;
    (net, utilization, seed)
  and fuzz family ~seed ~inputs ~outputs ~size ~utilization () =
    let net = Cals_workload.Gen.of_fuzz ~family ~seed ~inputs ~outputs ~size in
    Cals_logic.Optimize.script_area net;
    (net, utilization, seed + 1)
  in
  let stream i = 7919 + i (* the benchmark's stream i of seed 1 *) in
  [
    ("pdc/0", preset "pdc" ~scale:0.05 ~utilization:0.85 ~seed:(stream 0));
    ("pdc/1", preset "pdc" ~scale:0.05 ~utilization:0.85 ~seed:(stream 1));
    ("spla/0", preset "spla" ~scale:0.05 ~utilization:0.85 ~seed:(stream 2));
    ("spla/1", preset "spla" ~scale:0.05 ~utilization:0.85 ~seed:(stream 3));
    ("spla-settling/0", preset "spla" ~scale:0.1 ~utilization:0.55 ~seed:(stream 100));
    ("spla-settling/1", preset "spla" ~scale:0.1 ~utilization:0.55 ~seed:(stream 101));
    ("spla-settling/2", preset "spla" ~scale:0.1 ~utilization:0.55 ~seed:(stream 102));
    ("too_large", preset "too_large" ~scale:0.25 ~utilization:0.30 ~seed:2);
    ( "fuzz pla",
      fuzz `Pla ~seed:3 ~inputs:8 ~outputs:4 ~size:24 ~utilization:0.85 );
    ( "fuzz multilevel",
      fuzz `Multilevel ~seed:4 ~inputs:10 ~outputs:5 ~size:40
        ~utilization:0.45 );
  ]

let companion_pins =
  [
    ("pdc/0", "ab9391ebd509b994cbe4a60d79014748");
    ("pdc/1", "4b29370e2dbd18cd25ba1398463133a3");
    ("spla/0", "7d79caa105d6b34bece22aeb395d25aa");
    ("spla/1", "3caad41b3035883e5af9a5ca64ac4eb9");
    ("spla-settling/0", "c343daaae8061c581c25659a2d3d0a7d");
    ("spla-settling/1", "cce9a1accc2aa665633fb955207f4951");
    ("spla-settling/2", "0f74f3c4fc6cfcbac60b23843249d13a");
    ("too_large", "c0ca5cf09e49ca2c5305060b12e97e9f");
    ("fuzz pla", "fdc9d4c268d722e727e0f29637640063");
    ("fuzz multilevel", "ab3032a801a9765a40298368b1f0bee5");
  ]

(* A failing pin prints every digest it got, which are the values to
   record when a change is meant to move the placement. *)
let test_companion_pinned () =
  let digest (name, build) =
    let net, utilization, seed = build () in
    let subject = Cals_logic.Decompose.subject_of_network net in
    let floorplan =
      Floorplan.for_area
        ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
        ~utilization ~aspect:1.0 ~geometry
    in
    let pos = Placement.place_subject subject ~floorplan ~rng:(Rng.create seed) in
    let b = Buffer.create 65536 in
    Array.iter (Pinned_kernels.add_point b) pos;
    (name, Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  Alcotest.(check (list (pair string string)))
    "companion placements" companion_pins
    (List.map digest companion_cases)

let () =
  Alcotest.run "place"
    [
      ( "floorplan",
        [
          Alcotest.test_case "of_rows" `Quick test_floorplan_of_rows;
          Alcotest.test_case "for_area" `Quick test_floorplan_for_area;
          Alcotest.test_case "pads" `Quick test_floorplan_pads;
        ] );
      ( "fm",
        [
          Alcotest.test_case "balance" `Quick test_fm_balance;
          Alcotest.test_case "locks" `Quick test_fm_respects_locks;
          Alcotest.test_case "beats random" `Quick test_fm_beats_random;
          Alcotest.test_case "sane cuts" `Quick test_fm_pass_never_worsens;
          Alcotest.test_case "dead nets end the pass" `Quick
            test_fm_dead_nets_exit;
          QCheck_alcotest.to_alcotest prop_fm_oracle;
        ] );
      ( "bisect",
        [
          Alcotest.test_case "inside die" `Quick test_bisect_inside_die;
          Alcotest.test_case "beats random" `Quick test_bisect_better_than_random;
          Alcotest.test_case "deterministic" `Quick test_bisect_deterministic;
          QCheck_alcotest.to_alcotest prop_bisect_oracle;
        ] );
      ( "legalize",
        [
          Alcotest.test_case "no overlap" `Quick test_legalize_no_overlap;
          Alcotest.test_case "overflow" `Quick test_legalize_overflow;
          Alcotest.test_case "keeps fixed" `Quick test_legalize_keeps_fixed;
          Alcotest.test_case "high density" `Quick test_legalize_high_density;
        ] );
      ( "mapped",
        [
          Alcotest.test_case "seeded" `Quick test_place_mapped_seeded;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "seeded placements, 14 K x 6 variants" `Quick
            test_placement_pinned;
          Alcotest.test_case "companion pinned" `Quick test_companion_pinned;
        ] );
    ]
