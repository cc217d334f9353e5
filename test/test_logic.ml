module Cube = Cals_logic.Cube
module Sop = Cals_logic.Sop
module Kernel = Cals_logic.Kernel
module Factor = Cals_logic.Factor
module Network = Cals_logic.Network
module Optimize = Cals_logic.Optimize
module Decompose = Cals_logic.Decompose
module Blif = Cals_logic.Blif
module Pla = Cals_logic.Pla
module Subject = Cals_netlist.Subject
module Rng = Cals_util.Rng

(* One input vector, through the bit-parallel evaluator. *)
let sop_eval f inputs =
  Sop.eval64 f (Array.map (fun b -> if b then -1L else 0L) inputs) <> 0L

(* ------------------------- Cube ------------------------- *)

let c_ab = Cube.of_literals [ (0, true); (1, true) ]
let c_ab' = Cube.of_literals [ (0, true); (1, false) ]
let c_a = Cube.lit 0 true

let test_cube_literals_roundtrip () =
  Alcotest.(check (list (pair int bool)))
    "roundtrip"
    [ (0, true); (1, false); (3, true) ]
    (Cube.literals (Cube.of_literals [ (3, true); (0, true); (1, false) ]))

let test_cube_contradiction () =
  Alcotest.check_raises "x and x'"
    (Invalid_argument "Cube.of_literals: duplicate or contradictory literal")
    (fun () -> ignore (Cube.of_literals [ (0, true); (0, false) ]))

let test_cube_inter () =
  (match Cube.inter c_ab c_a with
  | Some c -> Alcotest.(check bool) "ab & a = ab" true (Cube.equal c c_ab)
  | None -> Alcotest.fail "intersection exists");
  Alcotest.(check bool) "ab & ab' empty" true (Cube.inter c_ab c_ab' = None)

let test_cube_covers () =
  Alcotest.(check bool) "a covers ab" true (Cube.covers c_a c_ab);
  Alcotest.(check bool) "ab not covers a" false (Cube.covers c_ab c_a);
  Alcotest.(check bool) "universe covers all" true (Cube.covers Cube.universe c_ab)

let test_cube_divide () =
  (match Cube.divide c_ab c_a with
  | Some q ->
    Alcotest.(check (list (pair int bool))) "ab/a = b" [ (1, true) ] (Cube.literals q)
  | None -> Alcotest.fail "divisible");
  Alcotest.(check bool) "a/(ab) fails" true (Cube.divide c_a c_ab = None)

let test_cube_common () =
  let g = Cube.common c_ab c_ab' in
  Alcotest.(check (list (pair int bool))) "common = a" [ (0, true) ] (Cube.literals g)

let test_cube_eval () =
  (* Bit 0 assigns a = 1, b = 1; bit 1 assigns a = 1, b = 0. *)
  let ab = Cube.eval64 c_ab [| 0b11L; 0b01L |] in
  Alcotest.(check int64) "ab at 11, not at 10" 0b01L (Int64.logand ab 0b11L);
  Alcotest.(check int64) "universe" (-1L) (Cube.eval64 Cube.universe [||])

let test_cube_to_string () =
  Alcotest.(check string) "render" "x0 x1'" (Cube.to_string c_ab');
  Alcotest.(check string) "universe" "<1>" (Cube.to_string Cube.universe)

(* ------------------------- Sop ------------------------- *)

let sop s = Sop.of_cubes s

let test_sop_containment_minimal () =
  let f = sop [ c_ab; c_a ] in
  Alcotest.(check int) "covered cube dropped" 1 (Sop.num_cubes f);
  Alcotest.(check bool) "kept a" true (Sop.equal f (sop [ c_a ]))

let test_sop_sum_product () =
  let f = Sop.sum (Sop.var 0) (Sop.var 1) in
  let g = Sop.product f (Sop.lit 2 false) in
  Alcotest.(check int) "cubes" 2 (Sop.num_cubes g);
  Alcotest.(check int) "literals" 4 (Sop.num_literals g);
  Alcotest.(check bool) "eval" true (sop_eval g [| true; false; false |]);
  Alcotest.(check bool) "eval c" false (sop_eval g [| true; false; true |])

let test_sop_product_annihilation () =
  let z = Sop.product (Sop.var 0) (Sop.lit 0 false) in
  Alcotest.(check bool) "zero" true (Sop.is_zero z)

let test_sop_cofactor () =
  let f = sop [ c_ab; Cube.of_literals [ (0, false); (2, true) ] ] in
  Alcotest.(check bool) "f_a = b" true (Sop.equal (Sop.cofactor f 0 true) (Sop.var 1));
  Alcotest.(check bool) "f_a' = c" true (Sop.equal (Sop.cofactor f 0 false) (Sop.var 2))

let test_sop_divide_by_cube () =
  let f =
    sop
      [
        Cube.of_literals [ (0, true); (1, true); (2, true) ];
        Cube.of_literals [ (0, true); (1, true); (3, true) ];
        Cube.lit 4 true;
      ]
  in
  let q, r = Sop.divide_by_cube f c_ab in
  Alcotest.(check bool) "quotient" true (Sop.equal q (Sop.sum (Sop.var 2) (Sop.var 3)));
  Alcotest.(check bool) "remainder" true (Sop.equal r (Sop.var 4))

let test_sop_weak_division () =
  let cube a b = Cube.of_literals [ (a, true); (b, true) ] in
  let f = sop [ cube 0 2; cube 0 3; cube 1 2; cube 1 3; Cube.lit 4 true ] in
  let d = Sop.sum (Sop.var 0) (Sop.var 1) in
  let q, r = Sop.divide f d in
  Alcotest.(check bool) "q = c+d" true (Sop.equal q (Sop.sum (Sop.var 2) (Sop.var 3)));
  Alcotest.(check bool) "r = e" true (Sop.equal r (Sop.var 4))

(* [a] divides [ab] by [b], and [a * ac = ac] is a cube of f, but [a]
   is no quotient by [ac] (that is the universe): nothing divides. *)
let test_sop_weak_division_shared_literal () =
  let a = Cube.lit 0 true and b = Cube.lit 1 true and c = Cube.lit 2 true in
  let cube x y = Option.get (Cube.inter x y) in
  let f = sop [ cube a b; cube a c ] in
  let d = sop [ b; cube a c ] in
  let q, r = Sop.divide f d in
  Alcotest.(check bool) "q = 0" true (Sop.is_zero q);
  Alcotest.(check bool) "r = f" true (Sop.equal r f)

let random_sop rng nvars ncubes_max =
  Sop.of_cubes
    (List.init (Rng.range rng 1 ncubes_max) (fun _ ->
         let lits = Rng.range rng 1 (min 4 nvars) in
         let vars = Rng.sample rng lits nvars in
         Cube.of_literals (List.map (fun v -> (v, Rng.bool rng)) vars)))

let test_sop_division_identity () =
  let rng = Rng.create 77 in
  for _ = 1 to 100 do
    let f = random_sop rng 6 5 and d = random_sop rng 6 2 in
    if not (Sop.is_zero d) then begin
      let q, r = Sop.divide f d in
      let rebuilt = Sop.sum (Sop.product q d) r in
      let inputs = Array.init 6 (fun _ -> Rng.bits64 rng) in
      if Sop.eval64 rebuilt inputs <> Sop.eval64 f inputs then
        Alcotest.failf "division identity broken: f=%s d=%s" (Sop.to_string f)
          (Sop.to_string d)
    end
  done

let test_sop_cube_free () =
  let f =
    sop
      [
        Cube.of_literals [ (0, true); (1, true) ];
        Cube.of_literals [ (0, true); (2, true) ];
      ]
  in
  Alcotest.(check bool) "not cube free" false (Sop.is_cube_free f);
  Alcotest.(check bool) "made cube free" true (Sop.is_cube_free (Sop.make_cube_free f))

let test_sop_complement () =
  let f = Sop.sum (Sop.var 0) (Sop.var 1) in
  match Sop.complement f with
  | None -> Alcotest.fail "complement exists"
  | Some g ->
    for row = 0 to 3 do
      let inputs = [| row land 1 <> 0; row land 2 <> 0 |] in
      Alcotest.(check bool)
        (Printf.sprintf "complement row %d" row)
        (not (sop_eval f inputs))
        (sop_eval g inputs)
    done

let test_sop_complement_random () =
  let rng = Rng.create 99 in
  for _ = 1 to 50 do
    let f = random_sop rng 8 6 in
    match Sop.complement f with
    | None -> Alcotest.fail "small sop should complement"
    | Some g ->
      let inputs = Array.init 8 (fun _ -> Rng.bits64 rng) in
      if Int64.lognot (Sop.eval64 f inputs) <> Sop.eval64 g inputs then
        Alcotest.failf "complement wrong for %s" (Sop.to_string f)
  done

let test_sop_substitute () =
  let f = sop [ Cube.of_literals [ (0, true); (2, true) ]; Cube.lit 1 true ] in
  let g = Sop.sum (Sop.var 3) (Sop.var 4) in
  Alcotest.(check bool) "can substitute" true (Sop.can_substitute f 2 g);
  let h = Sop.substitute f 2 g in
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let inputs = Array.init 5 (fun _ -> Rng.bits64 rng) in
    let v = Sop.eval64 g inputs in
    let f_in = [| inputs.(0); inputs.(1); v |] in
    if Sop.eval64 f f_in <> Sop.eval64 h inputs then Alcotest.fail "substitution wrong"
  done

let test_sop_substitute_negative_phase () =
  let f = sop [ Cube.of_literals [ (2, false); (0, true) ] ] in
  let g = Sop.sum (Sop.var 3) (Sop.var 4) in
  let h = Sop.substitute f 2 g in
  let rng = Rng.create 6 in
  for _ = 1 to 20 do
    let inputs = Array.init 5 (fun _ -> Rng.bits64 rng) in
    let v = Sop.eval64 g inputs in
    let f_in = [| inputs.(0); inputs.(1); v |] in
    if Sop.eval64 f f_in <> Sop.eval64 h inputs then
      Alcotest.fail "negative-phase substitution wrong"
  done

let test_sop_map_vars () =
  let f = sop [ c_ab ] in
  let g = Sop.map_vars (fun v -> v + 10) f in
  Alcotest.(check (list int)) "support" [ 10; 11 ] (Sop.support_list g)

(* ------------------------- Kernel ------------------------- *)

let test_kernels_textbook () =
  let cube a b = Cube.of_literals [ (a, true); (b, true) ] in
  let f = sop [ cube 0 2; cube 0 3; cube 1 2; cube 1 3 ] in
  let kernels = Kernel.all f in
  let has k = List.exists (fun x -> Sop.equal x.Kernel.kernel k) kernels in
  Alcotest.(check bool) "a+b" true (has (Sop.sum (Sop.var 0) (Sop.var 1)));
  Alcotest.(check bool) "c+d" true (has (Sop.sum (Sop.var 2) (Sop.var 3)))

let test_kernels_cube_free () =
  let rng = Rng.create 17 in
  for _ = 1 to 30 do
    let f = random_sop rng 7 8 in
    List.iter
      (fun k ->
        if not (Sop.is_cube_free k.Kernel.kernel) then
          Alcotest.failf "kernel not cube-free: %s" (Sop.to_string k.Kernel.kernel))
      (Kernel.all f)
  done

let test_kernels_single_cube_none () =
  let f = sop [ c_ab ] in
  Alcotest.(check int) "no kernels" 0 (List.length (Kernel.all f))

(* ------------------------- Factor ------------------------- *)

let test_factor_preserves_function () =
  let rng = Rng.create 23 in
  for _ = 1 to 100 do
    let f = random_sop rng 9 10 in
    let form = Factor.factor f in
    let inputs = Array.init 9 (fun _ -> Rng.bits64 rng) in
    if Factor.eval64 form inputs <> Sop.eval64 f inputs then
      Alcotest.failf "factoring changed function: %s" (Sop.to_string f)
  done

let test_factor_saves_literals () =
  let cube a b = Cube.of_literals [ (a, true); (b, true) ] in
  let f = sop [ cube 0 2; cube 0 3; cube 1 2; cube 1 3 ] in
  let form = Factor.factor f in
  Alcotest.(check int) "factored literals" 4 (Factor.num_literals form)

let test_factor_constants () =
  Alcotest.(check bool) "zero" true (Factor.factor Sop.zero = Factor.Const false);
  Alcotest.(check bool) "one" true (Factor.factor Sop.one = Factor.Const true)

(* ------------------------- Network ------------------------- *)

let two_level_net () =
  let net = Network.create ~pi_names:[| "a"; "b"; "c" |] in
  let fanins = [| Network.Pi 0; Network.Pi 1; Network.Pi 2 |] in
  let n0 = Network.add_node net fanins (sop [ c_ab; Cube.lit 2 true ]) in
  let n1 = Network.add_node net [| Network.Pi 0; Network.Pi 1 |] (sop [ c_ab ]) in
  Network.set_output net "o0" (Network.Node n0);
  Network.set_output net "o1" (Network.Node n1);
  net

let test_network_simulate () =
  let net = two_level_net () in
  let out = Network.simulate net [| -1L; -1L; 0L |] in
  Alcotest.(check int64) "o0 = ab" (-1L) out.(0);
  Alcotest.(check int64) "o1 = ab" (-1L) out.(1);
  let out = Network.simulate net [| 0L; -1L; 0L |] in
  Alcotest.(check int64) "o0 low" 0L out.(0)

let test_network_topo_and_live () =
  let net = two_level_net () in
  let _dead = Network.add_node net [| Network.Pi 0 |] (Sop.var 0) in
  Alcotest.(check int) "live" 2 (Network.num_live_nodes net);
  Alcotest.(check int) "topo live only" 2 (List.length (Network.topo_order net))

let test_network_sweep_removes_dead () =
  let net = two_level_net () in
  let _dead = Network.add_node net [| Network.Pi 0 |] (Sop.var 0) in
  Network.sweep net;
  Alcotest.(check int) "nodes compacted" 2 (Network.num_nodes net);
  match Network.validate net with Ok () -> () | Error e -> Alcotest.fail e

let test_network_sweep_buffers () =
  let net = Network.create ~pi_names:[| "a" |] in
  let buf = Network.add_node net [| Network.Pi 0 |] (Sop.var 0) in
  let inv = Network.add_node net [| Network.Node buf |] (Sop.lit 0 false) in
  Network.set_output net "o" (Network.Node inv);
  Network.sweep net;
  Alcotest.(check int) "one node left" 1 (Network.num_nodes net);
  let out = Network.simulate net [| 0L |] in
  Alcotest.(check int64) "still inverts" (-1L) out.(0)

let test_network_sweep_constant_fanin_terminates () =
  (* Regression: constant propagation cofactored the consumer's SOP but
     left the stale fanin reference, so the constant node stayed live and
     the sweep fixpoint never converged (hit by Optimize.eliminate on
     rare workloads — fuzz seed 159). *)
  let net = Network.create ~pi_names:[| "a"; "b" |] in
  let k1 = Network.add_node net [||] Sop.one in
  let n =
    Network.add_node net
      [| Network.Pi 0; Network.Node k1; Network.Pi 1 |]
      (Sop.sum (Sop.product (Sop.var 0) (Sop.var 1)) (Sop.var 2))
  in
  Network.set_output net "o" (Network.Node n);
  Network.sweep net;
  (* o = a*1 + b = a + b; the constant node is gone. *)
  Alcotest.(check int) "constant swept" 1 (Network.num_nodes net);
  let out = Network.simulate net [| 0L; -1L |] in
  Alcotest.(check int64) "o = a + b" (-1L) out.(0);
  let out = Network.simulate net [| 0L; 0L |] in
  Alcotest.(check int64) "o low" 0L out.(0);
  match Network.validate net with Ok () -> () | Error e -> Alcotest.fail e

let test_network_cycle_detect () =
  let net = Network.create ~pi_names:[| "a" |] in
  let n0 = Network.add_node net [| Network.Pi 0 |] (Sop.var 0) in
  (Network.node net n0).Network.fanins <- [| Network.Node n0 |];
  Network.set_output net "o" (Network.Node n0);
  match Network.validate net with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cycle not detected"

(* ------------------------- Optimize ------------------------- *)

let random_pla seed =
  let rng = Rng.create seed in
  Cals_workload.Gen.pla ~rng ~inputs:8 ~outputs:6 ~products:24 ~terms_lo:4
    ~terms_hi:10 ()

let spot_check_equiv netA netB seed label =
  let rng = Rng.create seed in
  for _ = 1 to 16 do
    let stimulus = Network.random_vectors rng netA in
    let a = Network.simulate netA stimulus and b = Network.simulate netB stimulus in
    if a <> b then Alcotest.failf "%s changed the function" label
  done

(* Round-trip through BLIF is a faithful deep copy. *)
let copy_network net = Blif.parse (Blif.print net)

let test_optimize_cube_extraction_preserves () =
  let net = random_pla 3 in
  let reference = copy_network net in
  let created = Optimize.extract_common_cubes net in
  Alcotest.(check bool) "extracted something" true (created > 0);
  spot_check_equiv reference net 101 "cube extraction";
  match Network.validate net with Ok () -> () | Error e -> Alcotest.fail e

let test_optimize_kernel_extraction_preserves () =
  let net = random_pla 4 in
  let reference = copy_network net in
  ignore (Optimize.extract_kernels net);
  spot_check_equiv reference net 102 "kernel extraction";
  match Network.validate net with Ok () -> () | Error e -> Alcotest.fail e

let test_optimize_eliminate_preserves () =
  let net = random_pla 5 in
  ignore (Optimize.extract_common_cubes net);
  let reference = copy_network net in
  ignore (Optimize.eliminate ~value_threshold:2 net);
  spot_check_equiv reference net 103 "eliminate";
  match Network.validate net with Ok () -> () | Error e -> Alcotest.fail e

let test_optimize_script_reduces_literals () =
  let net = random_pla 6 in
  let before = Network.num_literals net in
  let reference = copy_network net in
  Optimize.script_area net;
  let after = Network.num_literals net in
  Alcotest.(check bool)
    (Printf.sprintf "literals %d -> %d" before after)
    true (after < before);
  spot_check_equiv reference net 104 "script_area"

(* The memoized extraction against the rebuild-every-round oracle on
   both fuzz families: the same count and a byte-identical network from
   each pass. These networks offer at most a few hundred keys a round, so
   the count table keeps its initial size here; test_identity's
   TOO_LARGE-like 0.25 pin covers the resized table. *)
let qcheck_extraction_oracle =
  QCheck.Test.make ~name:"extraction == oracle" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let family = if seed land 1 = 0 then `Pla else `Multilevel in
      let net =
        Cals_workload.Gen.of_fuzz ~family ~seed ~inputs:(4 + (seed mod 9))
          ~outputs:(2 + (seed mod 4)) ~size:(8 + (seed mod 32))
      in
      let same name pass oracle =
        let a = Network.copy net and b = Network.copy net in
        let na = pass a and nb = oracle b in
        if na <> nb || Blif.print a <> Blif.print b then
          QCheck.Test.fail_reportf "%s: %d vs %d extractions on seed %d"
            name na nb seed
      in
      let module R = Cals_reference.Reference_optimize in
      same "cubes" Optimize.extract_common_cubes R.extract_common_cubes;
      same "kernels" Optimize.extract_kernels R.extract_kernels;
      same "script_area"
        (fun t -> Optimize.script_area t; 0)
        (fun t -> R.script_area t; 0);
      true)

(* ------------------------- Decompose ------------------------- *)

let test_decompose_preserves_function () =
  List.iter
    (fun seed ->
      let net = random_pla seed in
      let subject = Decompose.subject_of_network net in
      let rng = Rng.create (seed * 31) in
      for _ = 1 to 16 do
        let stimulus = Network.random_vectors rng net in
        let a = Network.simulate net stimulus in
        let b = Subject.simulate subject stimulus in
        if a <> b then Alcotest.failf "decomposition changed function (seed %d)" seed
      done)
    [ 1; 2; 3; 4; 5 ]

let test_decompose_shares_products () =
  let net = Network.create ~pi_names:[| "a"; "b"; "c" |] in
  let fanins = [| Network.Pi 0; Network.Pi 1; Network.Pi 2 |] in
  let abc = Cube.of_literals [ (0, true); (1, true); (2, true) ] in
  let n0 = Network.add_node net fanins (sop [ abc ]) in
  let n1 = Network.add_node net fanins (sop [ abc; Cube.lit 0 false ]) in
  Network.set_output net "o0" (Network.Node n0);
  Network.set_output net "o1" (Network.Node n1);
  let subject = Decompose.subject_of_network net in
  Alcotest.(check bool) "structural sharing" true (Subject.num_gates subject <= 8)

let test_decompose_constants () =
  let net = Network.create ~pi_names:[| "a" |] in
  let n0 = Network.add_node net [||] Sop.one in
  let n1 = Network.add_node net [||] Sop.zero in
  Network.set_output net "one" (Network.Node n0);
  Network.set_output net "zero" (Network.Node n1);
  let subject = Decompose.subject_of_network net in
  let npis = Subject.num_pis subject in
  let stimulus = Array.make npis 0L in
  let out = Subject.simulate subject stimulus in
  Alcotest.(check int64) "const one" (-1L) out.(0);
  Alcotest.(check int64) "const zero" 0L out.(1)

let test_factored_literals_bound () =
  let net = random_pla 9 in
  Alcotest.(check bool) "factored <= flat" true
    (Decompose.factored_literals net <= Network.num_literals net)

(* ------------------------- Blif ------------------------- *)

let sample_blif =
  ".model test\n.inputs a b c\n.outputs f g\n.names a b t1\n11 1\n\
   .names t1 c f\n1- 1\n-1 1\n.names a g\n0 1\n.end\n"

let test_blif_parse () =
  let net = Blif.parse sample_blif in
  Alcotest.(check int) "pis" 3 (Array.length (Network.pi_names net));
  Alcotest.(check int) "outputs" 2 (Array.length (Network.outputs net));
  let out = Network.simulate net [| -1L; -1L; 0L |] in
  Alcotest.(check int64) "f = ab" (-1L) out.(0);
  Alcotest.(check int64) "g = a'" 0L out.(1)

let test_blif_offset_cover () =
  let net =
    Blif.parse ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n"
  in
  let out = Network.simulate net [| -1L; -1L |] in
  Alcotest.(check int64) "f = (ab)'" 0L out.(0);
  let out = Network.simulate net [| 0L; -1L |] in
  Alcotest.(check int64) "f = 1 elsewhere" (-1L) out.(0)

let test_blif_roundtrip () =
  let net = random_pla 10 in
  ignore (Optimize.extract_common_cubes net);
  let net2 = Blif.parse (Blif.print net) in
  spot_check_equiv net net2 105 "blif roundtrip"

let test_blif_rejects_bad_input () =
  (try
     ignore (Blif.parse ".model m\n.inputs a\n.outputs q\n.latch a q\n.end\n");
     Alcotest.fail "latch accepted"
   with Blif.Parse_error _ -> ());
  try
    ignore (Blif.parse ".model m\n.inputs a\n.outputs f\n.names b f\n1 1\n.end\n");
    Alcotest.fail "undefined signal accepted"
  with Blif.Parse_error _ -> ()

let test_blif_cycle_rejected () =
  let src =
    ".model m\n.inputs a\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n"
  in
  try
    ignore (Blif.parse src);
    Alcotest.fail "cycle accepted"
  with Blif.Parse_error _ -> ()

let test_blif_continuation_and_comments () =
  let src =
    ".model m  # a comment\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n"
  in
  let net = Blif.parse src in
  Alcotest.(check int) "two pis" 2 (Array.length (Network.pi_names net))

(* ------------------------- Pla ------------------------- *)

let sample_pla = ".i 3\n.o 2\n.ilb a b c\n.ob f g\n.p 3\n11- 10\n--1 10\n0-- 01\n.e\n"

let test_pla_parse () =
  let net = Pla.parse sample_pla in
  let out = Network.simulate net [| -1L; -1L; 0L |] in
  Alcotest.(check int64) "f" (-1L) out.(0);
  Alcotest.(check int64) "g" 0L out.(1);
  let out = Network.simulate net [| 0L; 0L; 0L |] in
  Alcotest.(check int64) "f low" 0L out.(0);
  Alcotest.(check int64) "g high" (-1L) out.(1)

let test_pla_roundtrip () =
  let net = Pla.parse sample_pla in
  let net2 = Pla.parse (Pla.print net) in
  spot_check_equiv net net2 106 "pla roundtrip"

let test_pla_errors () =
  (try
     ignore (Pla.parse ".i 2\n.o 1\n111 1\n.e\n");
     Alcotest.fail "width mismatch accepted"
   with Pla.Parse_error _ -> ());
  try
    ignore (Pla.parse "11 1\n.e\n");
    Alcotest.fail "missing .i accepted"
  with Pla.Parse_error _ -> ()

(* ------------------------- Properties ------------------------- *)

let arb_sop =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 1 6)
        (list_size (int_range 1 3) (pair (int_range 0 5) bool)))
    |> Gen.map (fun cubes ->
           Sop.of_cubes
             (List.filter_map
                (fun lits ->
                  let dedup =
                    List.sort_uniq (fun (a, _) (b, _) -> compare a b) lits
                  in
                  match Cube.of_literals dedup with
                  | c -> Some c
                  | exception Invalid_argument _ -> None)
                cubes))
  in
  QCheck.make ~print:Sop.to_string gen

(* Cubes over the whole variable range, the universe and variable
   [max_vars - 1] included, checked against the all-variable reference
   walks in [Reference_logic]. *)
let arb_cube =
  let open QCheck in
  let last = Cube.max_vars - 1 in
  let random =
    Gen.(
      list_size (int_range 0 12) (pair (int_range 0 last) bool)
      |> map (fun lits ->
             Cube.of_literals (List.sort_uniq (fun (a, _) (b, _) -> compare a b) lits)))
  in
  let fixed =
    [ Cube.universe; Cube.lit last true; Cube.lit last false;
      Cube.of_literals [ (0, false); (last, true) ] ]
  in
  make ~print:Cube.to_string Gen.(frequency [ (1, oneofl fixed); (6, random) ])

let prop_cube_oracle =
  QCheck.Test.make ~name:"cube walks match the reference" ~count:500
    (QCheck.pair arb_cube QCheck.int) (fun (c, seed) ->
      let rng = Rng.create seed in
      let words = Array.init Cube.max_vars (fun _ -> Rng.bits64 rng) in
      Cube.literals c = Reference_logic.literals c
      && Cube.num_literals c = Reference_logic.num_literals c
      && Cube.eval64 c words = Reference_logic.eval64 c words)

(* SOPs over an alphabet of eight variables spread over the whole range, so
   kernels exist and variable [max_vars - 1] takes part. *)
let arb_wide_sop =
  let open QCheck in
  let gen =
    Gen.(
      pair
        (list_repeat 8 (int_range 0 (Cube.max_vars - 1)))
        (list_size (int_range 1 8)
           (list_size (int_range 1 4) (pair (int_range 0 7) bool))))
    |> Gen.map (fun (alphabet, cubes) ->
           let alphabet = Array.of_list (Cube.max_vars - 1 :: List.tl alphabet) in
           Sop.of_cubes
             (List.filter_map
                (fun lits ->
                  List.map (fun (i, ph) -> (alphabet.(i), ph)) lits
                  |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
                  |> Cube.of_literals_merged)
                cubes))
  in
  QCheck.make ~print:Sop.to_string gen

let prop_kernel_oracle =
  QCheck.Test.make ~name:"kernels match the reference" ~count:500 arb_wide_sop
    (fun f ->
      let same (a : Kernel.t) (b : Kernel.t) =
        Cube.equal a.cokernel b.cokernel && Sop.equal a.kernel b.kernel
      in
      let got = Kernel.all f and want = Reference_logic.kernels f in
      List.length got = List.length want && List.for_all2 same got want)

(* One division case over at most 12 variables. The divisor is the
   universe cube, a single literal or a random SOP; the dividend is random
   (rarely divisible), [q * d] plus noise (divides exactly), [q * d] with
   cubes dropped (divides partly), or [q * d] with every quotient cube
   drawn through a literal of [d], so quotient and divisor share
   literals. *)
let division_case seed =
  let rng = Rng.create seed in
  let nvars = Rng.range rng 1 12 in
  let cube maxlits =
    let n = Rng.int rng (min maxlits nvars + 1) in
    Cube.of_literals
      (List.map (fun v -> (v, Rng.bool rng)) (Rng.sample rng n nvars))
  in
  let sop n maxlits = Sop.of_cubes (List.init n (fun _ -> cube maxlits)) in
  let d =
    match Rng.int rng 6 with
    | 0 -> Sop.one
    | 1 -> Sop.lit (Rng.int rng nvars) (Rng.bool rng)
    | _ -> sop (Rng.range rng 1 4) 3
  in
  let noise () = Sop.cubes (sop (Rng.int rng 4) 4) in
  let multiple q = Sop.cubes (Sop.product q d) in
  let through_d () =
    let dc = Array.of_list (Sop.cubes d) in
    Sop.of_cubes
      (List.init (Rng.range rng 1 3) (fun _ ->
           let lits = Cube.literals dc.(Rng.int rng (Array.length dc)) in
           let c = cube 2 in
           if lits = [] then c
           else
             let v, ph = List.nth lits (Rng.int rng (List.length lits)) in
             Option.value ~default:c (Cube.inter c (Cube.lit v ph))))
  in
  let f =
    match Rng.int rng 4 with
    | 0 -> sop (Rng.range rng 1 10) 4
    | 1 -> Sop.of_cubes (multiple (sop (Rng.range rng 1 4) 3) @ noise ())
    | 2 ->
      Sop.of_cubes
        (List.filter
           (fun _ -> Rng.int rng 4 > 0)
           (multiple (sop (Rng.range rng 1 4) 3))
        @ noise ())
    | _ -> Sop.of_cubes (multiple (through_d ()) @ noise ())
  in
  (f, d)

let same_division (q, r) (q', r') = Sop.equal q q' && Sop.equal r r'

let prop_divide_oracle =
  QCheck.Test.make ~name:"divide == list oracle" ~count:3000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let f, d = division_case seed in
      let by_cube c =
        same_division (Sop.divide_by_cube f c) (Reference_logic.divide_by_cube f c)
      in
      if
        same_division (Sop.divide f d) (Reference_logic.divide f d)
        && List.for_all by_cube (Sop.cubes d)
      then true
      else
        QCheck.Test.fail_reportf "f = %s, d = %s" (Sop.to_string f)
          (Sop.to_string d))

(* Every live node of the three presets at 0.05 and of PDC-like 0.25,
   divided by each of its kernels and by each co-kernel. *)
let test_divide_sweep () =
  let module Presets = Cals_workload.Presets in
  let nets =
    [ Presets.spla_like ~scale:0.05 ~seed:1 ();
      Presets.pdc_like ~scale:0.05 ~seed:1 ();
      Presets.too_large_like ~scale:0.05 ~seed:1 ();
      Presets.pdc_like ~scale:0.25 ~seed:1 () ]
  in
  let divisions = ref 0 in
  List.iter
    (fun net ->
      let live = Network.live_nodes net in
      for i = 0 to Network.num_nodes net - 1 do
        if live.(i) then begin
          let f = (Network.node net i).Network.sop in
          List.iter
            (fun (k : Kernel.t) ->
              incr divisions;
              if
                not
                  (same_division (Sop.divide f k.kernel)
                     (Reference_logic.divide f k.kernel)
                  && same_division
                       (Sop.divide_by_cube f k.cokernel)
                       (Reference_logic.divide_by_cube f k.cokernel))
              then
                Alcotest.failf "node %d: f = %s, kernel = %s" i (Sop.to_string f)
                  (Sop.to_string k.kernel))
            (Kernel.all f)
        end
      done)
    nets;
  Alcotest.(check bool) "divisions ran" true (!divisions > 0)

let prop_sum_is_or =
  QCheck.Test.make ~name:"sop sum is boolean or" ~count:300
    (QCheck.pair arb_sop arb_sop) (fun (f, g) ->
      let rng = Rng.create 1 in
      let inputs = Array.init 6 (fun _ -> Rng.bits64 rng) in
      Sop.eval64 (Sop.sum f g) inputs
      = Int64.logor (Sop.eval64 f inputs) (Sop.eval64 g inputs))

let prop_product_is_and =
  QCheck.Test.make ~name:"sop product is boolean and" ~count:300
    (QCheck.pair arb_sop arb_sop) (fun (f, g) ->
      let rng = Rng.create 2 in
      let inputs = Array.init 6 (fun _ -> Rng.bits64 rng) in
      Sop.eval64 (Sop.product f g) inputs
      = Int64.logand (Sop.eval64 f inputs) (Sop.eval64 g inputs))

let prop_division_identity =
  QCheck.Test.make ~name:"f = q*d + r" ~count:300 (QCheck.pair arb_sop arb_sop)
    (fun (f, d) ->
      QCheck.assume (not (Sop.is_zero d));
      let q, r = Sop.divide f d in
      let rng = Rng.create 3 in
      let inputs = Array.init 6 (fun _ -> Rng.bits64 rng) in
      Sop.eval64 (Sop.sum (Sop.product q d) r) inputs = Sop.eval64 f inputs)

let prop_factor_equiv =
  QCheck.Test.make ~name:"factoring preserves function" ~count:200 arb_sop (fun f ->
      let rng = Rng.create 4 in
      let inputs = Array.init 6 (fun _ -> Rng.bits64 rng) in
      Factor.eval64 (Factor.factor f) inputs = Sop.eval64 f inputs)

let prop_complement =
  QCheck.Test.make ~name:"complement is negation" ~count:200 arb_sop (fun f ->
      match Sop.complement f with
      | None -> QCheck.assume_fail ()
      | Some g ->
        let rng = Rng.create 5 in
        let inputs = Array.init 6 (fun _ -> Rng.bits64 rng) in
        Sop.eval64 g inputs = Int64.lognot (Sop.eval64 f inputs))

(* ------------------------- parser fuzz ------------------------- *)

(* Up to four byte edits (replace, delete or insert; half the new bytes
   from the formats' own punctuation and digits). *)
let mutate rng text =
  let pool = "0123456789.-x \n\t#\\{}[]\":,e" in
  let byte () =
    if Rng.bool rng then pool.[Rng.int rng (String.length pool)]
    else Char.chr (Rng.int rng 256)
  in
  let s = ref text in
  for _ = 0 to Rng.int rng 4 do
    let t = !s in
    let n = String.length t in
    let pos = if n = 0 then 0 else Rng.int rng n in
    let head = String.sub t 0 pos in
    s :=
      match Rng.int rng 3 with
      | 0 when n > 0 ->
        head ^ String.make 1 (byte ()) ^ String.sub t (pos + 1) (n - pos - 1)
      | 1 when n > 0 -> head ^ String.sub t (pos + 1) (n - pos - 1)
      | _ -> head ^ String.make 1 (byte ()) ^ String.sub t pos (n - pos)
  done;
  !s

let golden_blifs =
  lazy
    (Sys.readdir "golden" |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".blif")
    |> List.map (fun f -> In_channel.with_open_bin (Filename.concat "golden" f) In_channel.input_all))

let job_line =
  {|{"id":"a","workload":{"family":"pla","seed":3,"inputs":6,"outputs":3,"size":12},"k_schedule":[0,0.001],"deadline_s":2.5}|}

(* Each parser returns, or raises its own [Parse_error], on any input;
   nothing else may escape. *)
let parse_cleanly name parse text =
  match parse text with
  | () -> ()
  | exception e ->
    QCheck.Test.fail_reportf "%s: %s escaped on %S" name (Printexc.to_string e) text

let parse_blif t = try ignore (Blif.parse t) with Blif.Parse_error _ -> ()
let parse_pla t = try ignore (Pla.parse t) with Pla.Parse_error _ -> ()
let parse_job t = ignore (Cals_serve.Proto.spec_of_string ~default_id:"d" t)

let prop_parsers_fail_cleanly =
  QCheck.Test.make ~count:3000 ~name:"byte-mutated inputs parse or fail cleanly"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let blifs = Lazy.force golden_blifs in
      parse_cleanly "Blif.parse" parse_blif
        (mutate rng (List.nth blifs (Rng.int rng (List.length blifs))));
      parse_cleanly "Pla.parse" parse_pla (mutate rng sample_pla);
      parse_cleanly "Proto.spec_of_string" parse_job (mutate rng job_line);
      true)

(* The shrunk escape the property found: a non-numeric [.o] count ended
   in [int_of_string]'s [Failure]; [.i x] is the same fault. A huge
   [.o] count was allocated: [Invalid_argument] or [Out_of_memory]. *)
let test_pla_header_regression () =
  List.iter (parse_cleanly "Pla.parse" parse_pla)
    [
      ".i 3\n.o }2\n.ilb a b c\n.ob f g\n\n.p 3\n11- 10\nv-1 10\n0-- 01\n.e\n";
      ".i x\n.o 1\n.e\n";
      ".i 2\n.o 4611686018427387903\n.e\n";
      ".i 2\n.o 1000000000000\n.e\n";
    ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "logic"
    [
      ( "cube",
        [
          Alcotest.test_case "literals roundtrip" `Quick test_cube_literals_roundtrip;
          Alcotest.test_case "contradiction" `Quick test_cube_contradiction;
          Alcotest.test_case "inter" `Quick test_cube_inter;
          Alcotest.test_case "covers" `Quick test_cube_covers;
          Alcotest.test_case "divide" `Quick test_cube_divide;
          Alcotest.test_case "common" `Quick test_cube_common;
          Alcotest.test_case "eval" `Quick test_cube_eval;
          Alcotest.test_case "to_string" `Quick test_cube_to_string;
          qc prop_cube_oracle;
        ] );
      ( "sop",
        [
          Alcotest.test_case "containment minimal" `Quick test_sop_containment_minimal;
          Alcotest.test_case "sum/product" `Quick test_sop_sum_product;
          Alcotest.test_case "product annihilation" `Quick
            test_sop_product_annihilation;
          Alcotest.test_case "cofactor" `Quick test_sop_cofactor;
          Alcotest.test_case "divide by cube" `Quick test_sop_divide_by_cube;
          Alcotest.test_case "weak division" `Quick test_sop_weak_division;
          Alcotest.test_case "weak division, shared literal" `Quick
            test_sop_weak_division_shared_literal;
          Alcotest.test_case "division identity" `Quick test_sop_division_identity;
          Alcotest.test_case "cube free" `Quick test_sop_cube_free;
          Alcotest.test_case "complement" `Quick test_sop_complement;
          Alcotest.test_case "complement random" `Quick test_sop_complement_random;
          Alcotest.test_case "substitute" `Quick test_sop_substitute;
          Alcotest.test_case "substitute negative" `Quick
            test_sop_substitute_negative_phase;
          Alcotest.test_case "map vars" `Quick test_sop_map_vars;
          qc prop_sum_is_or;
          qc prop_product_is_and;
          qc prop_division_identity;
          qc prop_divide_oracle;
          Alcotest.test_case "divide sweep" `Quick test_divide_sweep;
          qc prop_complement;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "textbook kernels" `Quick test_kernels_textbook;
          Alcotest.test_case "kernels cube-free" `Quick test_kernels_cube_free;
          Alcotest.test_case "single cube none" `Quick test_kernels_single_cube_none;
          qc prop_kernel_oracle;
        ] );
      ( "factor",
        [
          Alcotest.test_case "preserves function" `Quick test_factor_preserves_function;
          Alcotest.test_case "saves literals" `Quick test_factor_saves_literals;
          Alcotest.test_case "constants" `Quick test_factor_constants;
          qc prop_factor_equiv;
        ] );
      ( "network",
        [
          Alcotest.test_case "simulate" `Quick test_network_simulate;
          Alcotest.test_case "topo/live" `Quick test_network_topo_and_live;
          Alcotest.test_case "sweep dead" `Quick test_network_sweep_removes_dead;
          Alcotest.test_case "sweep buffers" `Quick test_network_sweep_buffers;
          Alcotest.test_case "sweep constant fanin terminates" `Quick
            test_network_sweep_constant_fanin_terminates;
          Alcotest.test_case "cycle detect" `Quick test_network_cycle_detect;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "cube extraction" `Quick
            test_optimize_cube_extraction_preserves;
          Alcotest.test_case "kernel extraction" `Quick
            test_optimize_kernel_extraction_preserves;
          Alcotest.test_case "eliminate" `Quick test_optimize_eliminate_preserves;
          Alcotest.test_case "script reduces literals" `Quick
            test_optimize_script_reduces_literals;
          qc qcheck_extraction_oracle;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "preserves function" `Quick
            test_decompose_preserves_function;
          Alcotest.test_case "shares products" `Quick test_decompose_shares_products;
          Alcotest.test_case "constants" `Quick test_decompose_constants;
          Alcotest.test_case "factored literal bound" `Quick
            test_factored_literals_bound;
        ] );
      ( "blif",
        [
          Alcotest.test_case "parse" `Quick test_blif_parse;
          Alcotest.test_case "offset cover" `Quick test_blif_offset_cover;
          Alcotest.test_case "roundtrip" `Quick test_blif_roundtrip;
          Alcotest.test_case "rejects latch/undefined" `Quick
            test_blif_rejects_bad_input;
          Alcotest.test_case "rejects cycle" `Quick test_blif_cycle_rejected;
          Alcotest.test_case "continuations/comments" `Quick
            test_blif_continuation_and_comments;
        ] );
      ( "pla",
        [
          Alcotest.test_case "parse" `Quick test_pla_parse;
          Alcotest.test_case "roundtrip" `Quick test_pla_roundtrip;
          Alcotest.test_case "errors" `Quick test_pla_errors;
        ] );
      ( "parsers",
        [
          qc prop_parsers_fail_cleanly;
          Alcotest.test_case "pla header regression" `Quick
            test_pla_header_regression;
        ] );
    ]
