module Partition = Cals_core.Partition
module Cover = Cals_core.Cover
module Mapper = Cals_core.Mapper
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Geom = Cals_util.Geom
module Rng = Cals_util.Rng
module Cell = Cals_cell.Cell

let lib = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry lib

(* Plain min-area covering (K = 0, no timing term). *)
let cover_options =
  {
    Cover.k = 0.0;
    t = 0.0;
    objective = Cover.Min_area;
    distance = Geom.manhattan;
    incremental_update = true;
    include_wire2 = true;
    transitive_wire = false;
  }

let pla_subject ?(inputs = 8) ?(outputs = 6) ?(products = 24) seed =
  let rng = Rng.create seed in
  let net =
    Cals_workload.Gen.pla ~rng ~inputs ~outputs ~products ~terms_lo:4 ~terms_hi:10 ()
  in
  Cals_logic.Network.sweep net;
  Cals_logic.Decompose.subject_of_network net

let placed_subject seed =
  let subject = pla_subject seed in
  let fp =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.55 ~aspect:1.0 ~geometry
  in
  let positions = Placement.place_subject subject ~floorplan:fp ~rng:(Rng.create (seed + 100)) in
  (subject, fp, positions)

let is_gate subject v =
  match subject.Subject.gates.(v) with
  | Subject.Pi _ -> false
  | Subject.Inv _ | Subject.Nand2 _ -> true

(* ------------------------- Partition ------------------------- *)

let check_forest subject (p : Partition.t) =
  (* Every live gate's father chain terminates at a root without cycles,
     and the father is always a live fanout of the node. *)
  let fanouts = Subject.fanouts subject in
  Array.iteri
    (fun v father ->
      match father with
      | None -> ()
      | Some u ->
        if not (List.mem u fanouts.(v)) then Alcotest.failf "father of %d not a fanout" v;
        if not p.Partition.live.(u) then Alcotest.failf "father of %d dead" v)
    p.Partition.father;
  let n = Subject.num_nodes subject in
  let state = Array.make n 0 in
  let rec climb v =
    match state.(v) with
    | 2 -> ()
    | 1 -> Alcotest.failf "father cycle at %d" v
    | _ ->
      state.(v) <- 1;
      (match p.Partition.father.(v) with Some u -> climb u | None -> ());
      state.(v) <- 2
  in
  for v = 0 to n - 1 do
    if p.Partition.live.(v) then climb v
  done

let test_partition_forest_all_strategies () =
  let subject, _, positions = placed_subject 1 in
  List.iter
    (fun strategy ->
      let p = Partition.run strategy subject ~positions ~distance:Geom.manhattan in
      check_forest subject p;
      (* Roots have no father; live gates are covered. *)
      List.iter
        (fun r ->
          if p.Partition.father.(r) <> None then Alcotest.fail "root has father")
        p.Partition.roots)
    [ Partition.Dagon; Partition.Cone; Partition.Pdp ]

let test_partition_dagon_splits_multifanout () =
  let subject, _, positions = placed_subject 2 in
  let p = Partition.run Partition.Dagon subject ~positions ~distance:Geom.manhattan in
  let fanouts = Subject.fanouts subject in
  let refs = Subject.output_refs subject in
  Array.iteri
    (fun v father ->
      if p.Partition.live.(v) && is_gate subject v then begin
        let live_fanouts = List.filter (fun u -> p.Partition.live.(u)) fanouts.(v) in
        match father with
        | Some _ ->
          if List.length live_fanouts <> 1 || refs.(v) > 0 then
            Alcotest.failf "dagon kept multi-fanout %d internal" v
        | None -> ()
      end)
    p.Partition.father

let test_partition_pdp_nearest () =
  let subject, _, positions = placed_subject 3 in
  let p = Partition.run Partition.Pdp subject ~positions ~distance:Geom.manhattan in
  let fanouts = Subject.fanouts subject in
  Array.iteri
    (fun v father ->
      match father with
      | None -> ()
      | Some u ->
        let d_father = Geom.manhattan positions.(u) positions.(v) in
        List.iter
          (fun w ->
            if p.Partition.live.(w) then begin
              let d = Geom.manhattan positions.(w) positions.(v) in
              if d < d_father -. 1e-9 then
                Alcotest.failf "node %d: father %d at %.2f but %d at %.2f" v u
                  d_father w d
            end)
          fanouts.(v))
    p.Partition.father

let is_gate subject v =
  match subject.Subject.gates.(v) with
  | Subject.Pi _ -> false
  | Subject.Inv _ | Subject.Nand2 _ -> true

(* Gates per tree, in [roots] order. *)
let tree_sizes (p : Partition.t) subject =
  let n = Subject.num_nodes subject in
  let root_of = Array.make n (-1) in
  let rec find v =
    if root_of.(v) >= 0 then root_of.(v)
    else begin
      let r = match p.Partition.father.(v) with None -> v | Some u -> find u in
      root_of.(v) <- r;
      r
    end
  in
  let sizes = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    if p.Partition.live.(v) && is_gate subject v then begin
      let r = find v in
      Hashtbl.replace sizes r (1 + Option.value ~default:0 (Hashtbl.find_opt sizes r))
    end
  done;
  List.map
    (fun r -> Option.value ~default:0 (Hashtbl.find_opt sizes r))
    p.Partition.roots
  |> Array.of_list

(* Live fanout edges that cross a tree boundary. *)
let duplication_refs (p : Partition.t) subject =
  let count = ref 0 in
  Array.iteri
    (fun w parents ->
      if p.Partition.live.(w) && is_gate subject w then
        List.iter
          (fun u ->
            if p.Partition.live.(u) && p.Partition.father.(w) <> Some u then
              incr count)
          parents)
    (Subject.fanouts subject);
  !count

let test_partition_pdp_bigger_trees_than_dagon () =
  let subject, _, positions = placed_subject 4 in
  let dagon = Partition.run Partition.Dagon subject ~positions ~distance:Geom.manhattan in
  let pdp = Partition.run Partition.Pdp subject ~positions ~distance:Geom.manhattan in
  (* PDP keeps multi-fanout nodes inside trees, so it has at most as many
     boundary references. *)
  Alcotest.(check bool) "pdp fewer or equal cross-tree refs" true
    (duplication_refs pdp subject <= duplication_refs dagon subject);
  let sizes_d = tree_sizes dagon subject in
  let sizes_p = tree_sizes pdp subject in
  let total a = Array.fold_left ( + ) 0 a in
  (* Both cover all live gates exactly once. *)
  Alcotest.(check int) "same gate total" (total sizes_d) (total sizes_p)

(* ------------------------- Cover ------------------------- *)

let test_cover_min_area_beats_naive () =
  let subject, _, positions = placed_subject 5 in
  let r = Mapper.map subject ~library:lib ~positions Mapper.min_area in
  (* Naive 1:1 mapping cost: every gate its own INV/NAND2 cell. *)
  let inv_area = (Cals_cell.Library.find lib "INV").Cell.area in
  let nand_area = (Cals_cell.Library.find lib "NAND2").Cell.area in
  let live =
    Partition.run Partition.Dagon subject ~positions ~distance:Geom.manhattan
  in
  let naive = ref 0.0 in
  Array.iteri
    (fun v g ->
      if live.Partition.live.(v) then
        match g with
        | Subject.Inv _ -> naive := !naive +. inv_area
        | Subject.Nand2 _ -> naive := !naive +. nand_area
        | Subject.Pi _ -> ())
    subject.Subject.gates;
  Alcotest.(check bool)
    (Printf.sprintf "mapped %.0f < naive %.0f" r.Mapper.stats.Mapper.cell_area !naive)
    true
    (r.Mapper.stats.Mapper.cell_area < !naive)

let test_cover_preserves_function_all_strategies () =
  let subject, _, positions = placed_subject 6 in
  List.iter
    (fun strategy ->
      List.iter
        (fun k ->
          let opts = { (Mapper.congestion_aware ~k) with strategy } in
          let r = Mapper.map subject ~library:lib ~positions opts in
          let rng = Rng.create 123 in
          for _ = 1 to 8 do
            let stimulus = Subject.random_vectors rng subject in
            if Subject.simulate subject stimulus
               <> Mapped.simulate r.Mapper.mapped stimulus
            then
              Alcotest.failf "mapping broke function (k=%g)" k
          done)
        [ 0.0; 0.001; 0.1 ])
    [ Partition.Dagon; Partition.Cone; Partition.Pdp ]

let test_cover_full_coverage () =
  let subject, _, positions = placed_subject 7 in
  List.iter
    (fun strategy ->
      let partition = Partition.run strategy subject ~positions ~distance:Geom.manhattan in
      let cover =
        Cover.run subject ~library:lib ~partition ~positions cover_options
      in
      match Cover.check_coverage cover with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ Partition.Dagon; Partition.Cone; Partition.Pdp ]

let test_cover_dp_optimal_vs_bruteforce () =
  (* On a tiny chain the DP min-area must equal exhaustive enumeration.
     Chain: f = INV(NAND(INV(NAND(a,b)), c)) — a NAND3-shaped cone with an
     extra INV at the root (i.e. AND3). *)
  let b = Subject.builder () in
  let a = Subject.add_pi b "a" in
  let bb = Subject.add_pi b "b" in
  let c = Subject.add_pi b "c" in
  let n1 = Subject.add_nand b a bb in
  let i1 = Subject.add_inv b n1 in
  let n2 = Subject.add_nand b i1 c in
  let i2 = Subject.add_inv b n2 in
  Subject.set_output b "f" i2;
  let subject = Subject.freeze b in
  let positions = Array.make (Subject.num_nodes subject) (Geom.point 0.0 0.0) in
  let r = Mapper.map subject ~library:lib ~positions Mapper.min_area in
  (* Optimal cover is a single AND3 cell. *)
  let and3 = Cals_cell.Library.find lib "AND3" in
  Alcotest.(check int) "one cell" 1 r.Mapper.stats.Mapper.cells;
  Alcotest.(check (float 1e-6)) "and3 area" and3.Cell.area r.Mapper.stats.Mapper.cell_area

let test_cover_duplication_on_swallowed_fanout () =
  (* A multi-fanout node inside a PDP tree must be duplicated or tapped,
     never lost. Build: s = NAND(a,b); f = INV(s); g = NAND(s,c). *)
  let b = Subject.builder () in
  let a = Subject.add_pi b "a" in
  let bb = Subject.add_pi b "b" in
  let c = Subject.add_pi b "c" in
  let s = Subject.add_nand b a bb in
  let f = Subject.add_inv b s in
  let g = Subject.add_nand b s c in
  Subject.set_output b "f" f;
  Subject.set_output b "g" g;
  let subject = Subject.freeze b in
  let positions = Array.init (Subject.num_nodes subject) (fun i ->
      Geom.point (float_of_int i) 0.0) in
  List.iter
    (fun strategy ->
      let opts = { Mapper.min_area with strategy } in
      let r = Mapper.map subject ~library:lib ~positions opts in
      let rng = Rng.create 9 in
      for _ = 1 to 8 do
        let stimulus = Subject.random_vectors rng subject in
        if Subject.simulate subject stimulus <> Mapped.simulate r.Mapper.mapped stimulus
        then Alcotest.fail "swallowed fanout broke function"
      done)
    [ Partition.Dagon; Partition.Cone; Partition.Pdp ]

let test_cover_k_monotone_area () =
  let subject, _, positions = placed_subject 8 in
  let area k =
    let r = Mapper.map subject ~library:lib ~positions (Mapper.congestion_aware ~k) in
    r.Mapper.stats.Mapper.cell_area
  in
  let a0 = area 0.0 and a1 = area 0.01 and a2 = area 1.0 in
  Alcotest.(check bool) (Printf.sprintf "%.0f <= %.0f" a0 a1) true (a0 <= a1 +. 1e-6);
  Alcotest.(check bool) (Printf.sprintf "%.0f <= %.0f" a0 a2) true (a0 <= a2 +. 1e-6)

let test_cover_k_reduces_seed_wirelength () =
  let subject, fp, positions = placed_subject 9 in
  let hpwl k =
    let r = Mapper.map subject ~library:lib ~positions (Mapper.congestion_aware ~k) in
    (Placement.place_mapped_seeded r.Mapper.mapped ~floorplan:fp).Placement.hpwl
  in
  let h0 = hpwl 0.0 and h1 = hpwl 0.005 in
  Alcotest.(check bool) (Printf.sprintf "hpwl %.0f -> %.0f" h0 h1) true (h1 < h0)

let test_cover_seeds_inside_die () =
  let subject, fp, positions = placed_subject 10 in
  let r = Mapper.map subject ~library:lib ~positions (Mapper.congestion_aware ~k:0.001) in
  Array.iter
    (fun inst ->
      if not (Floorplan.contains fp inst.Mapped.seed) then
        Alcotest.fail "seed outside die")
    r.Mapper.mapped.Mapped.instances

let test_cover_ablation_options_run () =
  let subject, _, positions = placed_subject 11 in
  List.iter
    (fun opts ->
      let r = Mapper.map subject ~library:lib ~positions opts in
      let rng = Rng.create 77 in
      let stimulus = Subject.random_vectors rng subject in
      if Subject.simulate subject stimulus <> Mapped.simulate r.Mapper.mapped stimulus
      then Alcotest.fail "ablation broke function")
    [
      { (Mapper.congestion_aware ~k:0.001) with incremental_update = false };
      { (Mapper.congestion_aware ~k:0.001) with include_wire2 = false };
      { (Mapper.congestion_aware ~k:0.001) with transitive_wire = true };
      { (Mapper.congestion_aware ~k:0.001) with distance = Geom.euclidean };
    ]

let test_min_delay_objective () =
  let subject, fp, positions = placed_subject 13 in
  let wire = Cals_cell.Library.wire lib in
  let arrival opts =
    let r = Mapper.map subject ~library:lib ~positions opts in
    let mapped = r.Mapper.mapped in
    let placement = Placement.place_mapped_seeded mapped ~floorplan:fp in
    let report = Cals_sta.Sta.analyze mapped ~wire ~placement in
    (report.Cals_sta.Sta.critical.Cals_sta.Sta.arrival_ns,
     r.Mapper.stats.Mapper.cell_area, mapped)
  in
  let t_area, a_area, m_area = arrival Mapper.min_area in
  let t_delay, a_delay, m_delay =
    arrival
      { Mapper.min_area with objective = Cover.Min_delay { load_pf = 0.02 } }
  in
  (* Delay covering must not be slower than area covering, and it pays
     area for the speedup (or finds the same cover). *)
  Alcotest.(check bool)
    (Printf.sprintf "delay %.3f <= area %.3f" t_delay t_area)
    true
    (t_delay <= t_area +. 1e-9);
  Alcotest.(check bool) "area ordering" true (a_delay >= a_area -. 1e-6);
  (* Both still compute the right function. *)
  let rng = Rng.create 14 in
  let stimulus = Subject.random_vectors rng subject in
  let reference = Subject.simulate subject stimulus in
  Alcotest.(check bool) "min-area equivalent" true
    (Mapped.simulate m_area stimulus = reference);
  Alcotest.(check bool) "min-delay equivalent" true
    (Mapped.simulate m_delay stimulus = reference)

let test_transitive_wire_grows_area_faster () =
  (* The Pedram-Bhat-style cost should inflate area at least as much as the
     paper's bounded cost at the same K (Section 3.3's argument). *)
  let subject, _, positions = placed_subject 12 in
  let area opts =
    (Mapper.map subject ~library:lib ~positions opts).Mapper.stats.Mapper.cell_area
  in
  let ours = area (Mapper.congestion_aware ~k:0.005) in
  let pedram =
    area { (Mapper.congestion_aware ~k:0.005) with transitive_wire = true }
  in
  Alcotest.(check bool)
    (Printf.sprintf "transitive %.0f >= bounded %.0f" pedram ours)
    true (pedram >= ours -. 1e-6)

(* ------------------------- Pinned covers ------------------------- *)

(* Digests recorded before the cover DP was rewritten over flat state:
   every solution's figures (float bits), the run's counts and the
   extracted netlist, at all 14 ladder K, per subject and option variant
   (see Pinned_kernels). *)
let cover_pins =
  [
    (("pla 11", "congestion_aware"), "f4fbbc068aeb273ba24e7f49d148d840");
    (("pla 11", "no incremental update"), "0d8a826e5de8821d754eaca99871d582");
    (("pla 11", "no wire2"), "4fe48b489b6fbf03b1574563f02c17d0");
    (("pla 11", "transitive wire"), "d65695e8aa7fce881f9bb7b5b1549a7c");
    (("pla 11", "euclidean"), "0e28cb0009774146c436332a2de09cfd");
    (("pla 11", "min delay"), "597ff36aa4ae40acca1ef265f8e8eaf5");
    (("pla 11", "t = 0.5"), "d708d3b7979c0f37c39b25daf7469c5d");
    (("pla 21", "congestion_aware"), "e3c55c7114a3abc8533edb1e0d737bbe");
    (("pla 21", "no incremental update"), "c2933069e4346ee4e9879d217971638c");
    (("pla 21", "no wire2"), "b0528a7a818c68325188670822ff9e71");
    (("pla 21", "transitive wire"), "ce331f679f595fd7d08fae1de4b53314");
    (("pla 21", "euclidean"), "0f6ff758d0b1f55c6310d0f9a5f99eed");
    (("pla 21", "min delay"), "7b8cc4ff27d6965a50b2c6ad79b856c1");
    (("pla 21", "t = 0.5"), "4fda1cd9088bb7313814c866f1a672ba");
  ]

let test_cover_pinned () =
  Pinned_kernels.check "cover" cover_pins Pinned_kernels.cover_digest


let () =
  Alcotest.run "core"
    [
      ( "partition",
        [
          Alcotest.test_case "forest (all strategies)" `Quick
            test_partition_forest_all_strategies;
          Alcotest.test_case "dagon splits multifanout" `Quick
            test_partition_dagon_splits_multifanout;
          Alcotest.test_case "pdp nearest father" `Quick test_partition_pdp_nearest;
          Alcotest.test_case "pdp vs dagon refs" `Quick
            test_partition_pdp_bigger_trees_than_dagon;
        ] );
      ( "cover",
        [
          Alcotest.test_case "min-area beats naive" `Quick test_cover_min_area_beats_naive;
          Alcotest.test_case "function preserved" `Quick
            test_cover_preserves_function_all_strategies;
          Alcotest.test_case "full coverage" `Quick test_cover_full_coverage;
          Alcotest.test_case "dp optimal (tiny)" `Quick test_cover_dp_optimal_vs_bruteforce;
          Alcotest.test_case "swallowed fanout" `Quick
            test_cover_duplication_on_swallowed_fanout;
          Alcotest.test_case "K monotone area" `Quick test_cover_k_monotone_area;
          Alcotest.test_case "K reduces wirelength" `Quick
            test_cover_k_reduces_seed_wirelength;
          Alcotest.test_case "seeds inside die" `Quick test_cover_seeds_inside_die;
          Alcotest.test_case "ablations run" `Quick test_cover_ablation_options_run;
          Alcotest.test_case "min-delay objective" `Quick test_min_delay_objective;
          Alcotest.test_case "transitive wire variant" `Quick
            test_transitive_wire_grows_area_faster;
        ] );
      ( "cover pinned",
        [ Alcotest.test_case "14 K x 7 variants" `Quick test_cover_pinned ] );
    ]
