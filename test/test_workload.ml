module Gen = Cals_workload.Gen
module Presets = Cals_workload.Presets
module Network = Cals_logic.Network
module Subject = Cals_netlist.Subject
module Rng = Cals_util.Rng

let test_pla_shape () =
  let rng = Rng.create 1 in
  let net = Gen.pla ~rng ~inputs:10 ~outputs:8 ~products:40 () in
  Alcotest.(check int) "pis" 10 (Array.length (Network.pi_names net));
  Alcotest.(check int) "pos" 8 (Array.length (Network.outputs net));
  Alcotest.(check int) "one node per output" 8 (Network.num_live_nodes net);
  match Network.validate net with Ok () -> () | Error e -> Alcotest.fail e

let test_pla_deterministic () =
  let build seed =
    let rng = Rng.create seed in
    Gen.pla ~rng ~inputs:8 ~outputs:4 ~products:20 ()
  in
  let a = build 5 and b = build 5 and c = build 6 in
  let probe = Array.init 8 (fun i -> Int64.of_int (0x123457 * (i + 1))) in
  Alcotest.(check bool) "same seed same function" true
    (Network.simulate a probe = Network.simulate b probe);
  Alcotest.(check bool) "different seed differs" true
    (Network.simulate a probe <> Network.simulate c probe)

let test_pla_sharing_signature () =
  (* Shared products across outputs must create multi-fanout base gates
     after decomposition — the structural signature the paper relies on. *)
  let rng = Rng.create 2 in
  let net = Gen.pla ~rng ~inputs:10 ~outputs:10 ~products:30 ~terms_lo:8 ~terms_hi:15 () in
  let subject = Cals_logic.Decompose.subject_of_network net in
  let counts = Subject.fanout_counts subject in
  let multi = ref 0 in
  Array.iteri
    (fun v g ->
      match g with
      | Subject.Pi _ -> ()
      | Subject.Inv _ | Subject.Nand2 _ -> if counts.(v) > 1 then incr multi)
    subject.Subject.gates;
  Alcotest.(check bool)
    (Printf.sprintf "%d multi-fanout gates" !multi)
    true (!multi > 10)

let test_multilevel_shape () =
  let rng = Rng.create 3 in
  let net = Gen.multilevel ~rng ~inputs:12 ~outputs:6 ~internal_nodes:50 () in
  Alcotest.(check int) "pis" 12 (Array.length (Network.pi_names net));
  Alcotest.(check int) "pos" 6 (Array.length (Network.outputs net));
  Alcotest.(check bool) "has depth" true (Network.num_live_nodes net > 6);
  match Network.validate net with Ok () -> () | Error e -> Alcotest.fail e

let test_multilevel_decomposes () =
  let rng = Rng.create 4 in
  let net = Gen.multilevel ~rng ~inputs:10 ~outputs:8 ~internal_nodes:60 () in
  Network.sweep net;
  let subject = Cals_logic.Decompose.subject_of_network net in
  let rng2 = Rng.create 5 in
  for _ = 1 to 8 do
    let stimulus = Network.random_vectors rng2 net in
    if Network.simulate net stimulus <> Subject.simulate subject stimulus then
      Alcotest.fail "multilevel decomposition broke function"
  done

let test_presets_sizes () =
  (* Tiny scale so the test stays fast; checks the io signature. *)
  let spla = Presets.spla_like ~scale:0.02 ~seed:1 () in
  Alcotest.(check int) "spla inputs" 16 (Array.length (Network.pi_names spla));
  Alcotest.(check int) "spla outputs" 46 (Array.length (Network.outputs spla));
  let pdc = Presets.pdc_like ~scale:0.02 ~seed:1 () in
  Alcotest.(check int) "pdc inputs" 16 (Array.length (Network.pi_names pdc));
  Alcotest.(check int) "pdc outputs" 40 (Array.length (Network.outputs pdc));
  let tl = Presets.too_large_like ~scale:0.02 ~seed:1 () in
  Alcotest.(check int) "too_large inputs" 38 (Array.length (Network.pi_names tl))

let test_presets_scale_grows () =
  let gates scale =
    let net = Presets.spla_like ~scale ~seed:3 () in
    Network.sweep net;
    Subject.num_gates (Cals_logic.Decompose.subject_of_network net)
  in
  let small = gates 0.02 and big = gates 0.08 in
  Alcotest.(check bool) (Printf.sprintf "%d < %d" small big) true (small < big)

let test_figure1 () =
  let subject, positions = Presets.figure1 () in
  Alcotest.(check int) "gates" 4 (Subject.num_gates subject);
  Alcotest.(check int) "positions cover nodes" (Subject.num_nodes subject)
    (Array.length positions);
  (* f = NOT(ab + c) *)
  let sim a b c =
    let out =
      Subject.simulate subject
        [|
          (if a then -1L else 0L); (if b then -1L else 0L); (if c then -1L else 0L);
        |]
    in
    out.(0) = -1L
  in
  Alcotest.(check bool) "f(1,1,0)" false (sim true true false);
  Alcotest.(check bool) "f(0,0,1)" false (sim false false true);
  Alcotest.(check bool) "f(0,1,0)" true (sim false true false)

let test_figure1_mapping_flips_with_k () =
  (* K = 0 chooses the single AOI21; a large K splits into simple cells
     near the operands — the paper's Figure 1 trade-off. *)
  let subject, positions = Presets.figure1 () in
  let lib = Cals_cell.Stdlib_018.library in
  let map k =
    let r =
      Cals_reference.Reference_mapper.map subject ~library:lib ~positions
        (Cals_core.Mapper.congestion_aware ~k)
    in
    Cals_netlist.Mapped.cell_histogram r.Cals_core.Mapper.mapped
  in
  let hist0 = map 0.0 in
  Alcotest.(check (list (pair string int))) "min-area = one AOI21"
    [ ("AOI21", 1) ] hist0;
  let hist_k = map 0.05 in
  Alcotest.(check bool) "congestion-aware splits" true
    (List.length hist_k > 1 || fst (List.hd hist_k) <> "AOI21")

let () =
  Alcotest.run "workload"
    [
      ( "gen",
        [
          Alcotest.test_case "pla shape" `Quick test_pla_shape;
          Alcotest.test_case "pla deterministic" `Quick test_pla_deterministic;
          Alcotest.test_case "pla sharing" `Quick test_pla_sharing_signature;
          Alcotest.test_case "multilevel shape" `Quick test_multilevel_shape;
          Alcotest.test_case "multilevel decomposes" `Quick test_multilevel_decomposes;
        ] );
      ( "presets",
        [
          Alcotest.test_case "io signatures" `Quick test_presets_sizes;
          Alcotest.test_case "scale grows" `Quick test_presets_scale_grows;
          Alcotest.test_case "figure1 function" `Quick test_figure1;
          Alcotest.test_case "figure1 mapping" `Quick test_figure1_mapping_flips_with_k;
        ] );
    ]
