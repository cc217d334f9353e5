(* AIG substrate: mk_and canonicalization, conversion round trips
   (miter-checked), pass equivalence/determinism, and the golden-corpus
   strash reduction pins. *)

open Cals_logic
module Rng = Cals_util.Rng
module Equiv = Cals_verify.Equiv

let rng () = Rng.create 0xA16

(* [passes] folded over the AIG of [net], projected back to a network. *)
let run passes net =
  Aig.to_network (List.fold_left (fun t p -> Aig.apply p t) (Aig.of_network net) passes)

(* ------------------------------------------------------------------ *)
(* mk_and canonicalization                                             *)
(* ------------------------------------------------------------------ *)

let test_literal_packing () =
  Alcotest.(check int) "const false" 0 Aig.const_false;
  Alcotest.(check int) "const true" 1 Aig.const_true;
  Alcotest.(check int) "pack" 7 (Aig.lit 3 true);
  Alcotest.(check int) "node" 3 (Aig.lit_node 7);
  Alcotest.(check bool) "compl" true (Aig.lit_compl 7);
  Alcotest.(check int) "neg" 6 (Aig.neg 7);
  Alcotest.(check int) "neg involutive" 7 (Aig.neg (Aig.neg 7))

let test_mk_and_rules () =
  let t = Aig.create ~pi_names:[| "a"; "b" |] () in
  let a = Aig.pi t 0 and b = Aig.pi t 1 in
  Alcotest.(check int) "x & 0" Aig.const_false (Aig.mk_and t a Aig.const_false);
  Alcotest.(check int) "x & 1" a (Aig.mk_and t a Aig.const_true);
  Alcotest.(check int) "x & x" a (Aig.mk_and t a a);
  Alcotest.(check int) "x & ~x" Aig.const_false (Aig.mk_and t a (Aig.neg a));
  Alcotest.(check int) "no node allocated yet" 0 (Aig.num_nodes t);
  let ab = Aig.mk_and t a b in
  Alcotest.(check int) "strash: a&b == b&a" ab (Aig.mk_and t b a);
  Alcotest.(check int) "one node" 1 (Aig.num_nodes t);
  let nanb = Aig.mk_and t (Aig.neg a) (Aig.neg b) in
  Alcotest.(check bool) "distinct phased pair" true (ab <> nanb);
  Alcotest.(check int) "two nodes" 2 (Aig.num_nodes t)

let test_strash_off () =
  let t = Aig.create ~strash:false ~pi_names:[| "a"; "b" |] () in
  let a = Aig.pi t 0 and b = Aig.pi t 1 in
  let x = Aig.mk_and t a b and y = Aig.mk_and t a b in
  Alcotest.(check bool) "duplicates kept" true (x <> y);
  Alcotest.(check int) "two nodes" 2 (Aig.num_nodes t);
  Aig.set_output t "f" x;
  Aig.set_output t "g" y;
  let s = Aig.apply Aig.Strash t in
  Alcotest.(check int) "strash merges" 1 (Aig.num_ands s)

let test_simulate () =
  let t = Aig.create ~pi_names:[| "a"; "b" |] () in
  let a = Aig.pi t 0 and b = Aig.pi t 1 in
  Aig.set_output t "and" (Aig.mk_and t a b);
  Aig.set_output t "or" (Aig.neg (Aig.mk_and t (Aig.neg a) (Aig.neg b)));
  Aig.set_output t "true" Aig.const_true;
  let out = Aig.simulate t [| 0b1100L; 0b1010L |] in
  Alcotest.(check int64) "and" 0b1000L (Int64.logand out.(0) 0xFL);
  Alcotest.(check int64) "or" 0b1110L (Int64.logand out.(1) 0xFL);
  Alcotest.(check int64) "const" (-1L) out.(2)

(* ------------------------------------------------------------------ *)
(* Conversion + pass equivalence over the fuzz substrate               *)
(* ------------------------------------------------------------------ *)

let fuzz_network seed =
  let family = if seed land 1 = 0 then `Pla else `Multilevel in
  let inputs = 4 + (seed mod 7) in
  let outputs = 2 + (seed mod 4) in
  let size = 6 + (seed mod 18) in
  Cals_workload.Gen.of_fuzz ~family ~seed ~inputs ~outputs ~size

let check_equiv ~what a b =
  match Equiv.check ~rng:(rng ()) a b with
  | Ok () -> true
  | Error cex ->
    Printf.printf "%s: %s\n" what (Equiv.counterexample_to_string cex);
    false

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 10_000)

let qcheck_round_trip =
  QCheck.Test.make ~name:"aig round trip is miter-equivalent" ~count:60
    arb_seed (fun seed ->
      let net = fuzz_network seed in
      let back = Aig.to_network (Aig.of_network net) in
      check_equiv ~what:"round trip"
        (Equiv.of_network ~label:"network" net)
        (Equiv.of_network ~label:"aig round trip" back))

let qcheck_passes_preserve =
  QCheck.Test.make ~name:"every pass sequence is miter-equivalent" ~count:40
    arb_seed (fun seed ->
      let net = fuzz_network seed in
      let sequences =
        [ Aig.all_passes;
          [ Aig.Rewrite; Aig.Balance; Aig.Rewrite ];
          [ Aig.Cse; Aig.Strash; Aig.Balance ];
          [ Aig.Dce; Aig.Constprop ] ]
      in
      List.for_all
        (fun passes ->
          let opt = run passes net in
          check_equiv ~what:"passes"
            (Equiv.of_network ~label:"network" net)
            (Equiv.of_network ~label:"optimized" opt))
        sequences)

let qcheck_subject_projection =
  QCheck.Test.make ~name:"aig subject projection is miter-equivalent"
    ~count:40 arb_seed (fun seed ->
      let net = fuzz_network seed in
      let t = Aig.of_network net in
      check_equiv ~what:"subject"
        (Equiv.of_network ~label:"network" net)
        (Equiv.of_subject ~label:"aig subject" (Aig.to_subject t)))

let qcheck_simulate_agrees =
  QCheck.Test.make ~name:"aig simulate agrees with network simulate"
    ~count:60 arb_seed (fun seed ->
      let net = fuzz_network seed in
      let t = Aig.of_network net in
      check_equiv ~what:"simulate"
        (Equiv.of_network ~label:"network" net)
        { label = "aig";
          pi_names = Aig.pi_names t;
          output_names = Array.map fst (Aig.outputs t);
          simulate = Aig.simulate t })

let qcheck_balance_depth =
  QCheck.Test.make ~name:"balance never deepens the graph" ~count:40
    arb_seed (fun seed ->
      let t = Aig.of_network (fuzz_network seed) in
      Aig.depth (Aig.apply Aig.Balance t) <= Aig.depth t)

let qcheck_pass_determinism =
  QCheck.Test.make ~name:"pass pipelines are deterministic" ~count:30
    arb_seed (fun seed ->
      let net = fuzz_network seed in
      let dump n =
        let buf = Buffer.create 256 in
        List.iter
          (fun i ->
            let node = Network.node n i in
            Buffer.add_string buf (Sop.to_string node.Network.sop);
            Array.iter
              (fun s ->
                Buffer.add_string buf
                  (match s with
                  | Network.Pi p -> Printf.sprintf " p%d" p
                  | Network.Node m -> Printf.sprintf " n%d" m))
              node.Network.fanins)
          (Network.topo_order n);
        Array.iter
          (fun (name, s) ->
            Buffer.add_string buf
              (match s with
              | Network.Pi p -> Printf.sprintf " %s=p%d" name p
              | Network.Node m -> Printf.sprintf " %s=n%d" name m))
          (Network.outputs n);
        Buffer.contents buf
      in
      let a = dump (run Aig.all_passes net) in
      let b = dump (run Aig.all_passes net) in
      a = b)

(* One graph seeds every candidate pipeline in [Orchestrate.prepare], which
   relies on passes, conversions and statistics leaving their argument
   untouched. The marshalled bytes cover every field of the graph, the
   strash table and the spare array capacity included. *)
let qcheck_read_only =
  QCheck.Test.make ~name:"passes, conversions and statistics are read-only"
    ~count:30 arb_seed (fun seed ->
      let t = Aig.of_network (fuzz_network seed) in
      let dump () = Marshal.to_string t [] in
      let before = dump () in
      List.iter (fun p -> ignore (Aig.apply p t)) Aig.all_passes;
      ignore (Aig.to_network t);
      ignore (Aig.to_subject t);
      ignore (Aig.num_ands t);
      ignore (Aig.depth t);
      ignore (Aig.simulate t (Array.make (Aig.num_pis t) 0x5555L));
      dump () = before)

(* ------------------------------------------------------------------ *)
(* Golden-corpus strash pins                                           *)
(* ------------------------------------------------------------------ *)

(* Node counts of the raw (strash:false) construction vs after the
   Strash pass, pinned per golden design: the regression guard on the
   structural-hashing reduction claim. Update deliberately if the
   factored-form expansion changes. *)
let golden_dir =
  Option.value (Sys.getenv_opt "CALS_GOLDEN_DIR") ~default:"golden"

let strash_pins =
  [ ("ml_control_10.blif", 44, 35);
    ("ml_deep_08.blif", 60, 47);
    ("pla_shared_08.blif", 334, 245);
    ("pla_small_06.blif", 182, 110);
    ("pla_wide_10.blif", 338, 289) ]

let test_golden_strash_reduction () =
  List.iter
    (fun (name, pin_raw, pin_strash) ->
      let path = Filename.concat golden_dir name in
      let net = Result.get_ok (Blif.load path) in
      let raw = Aig.of_network ~strash:false net in
      let hashed = Aig.apply Aig.Strash raw in
      let before = Aig.num_nodes raw and after = Aig.num_ands hashed in
      Alcotest.(check int) (path ^ ": raw nodes") pin_raw before;
      Alcotest.(check int) (path ^ ": strashed nodes") pin_strash after;
      Alcotest.(check bool)
        (Printf.sprintf "%s: strash reduces (%d -> %d)" path before after)
        true
        (after < before);
      (* The strashed graph must match hash-consed construction. *)
      let direct = Aig.of_network net in
      Alcotest.(check int)
        (Printf.sprintf "%s: strash == construction hashing" path)
        (Aig.num_ands direct) after;
      let equiv =
        check_equiv ~what:path
          (Equiv.of_network ~label:"network" net)
          (Equiv.of_network ~label:"strashed" (Aig.to_network hashed))
      in
      Alcotest.(check bool) (path ^ ": equivalent") true equiv)
    strash_pins

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "aig"
    [ ( "literals",
        [ Alcotest.test_case "packing" `Quick test_literal_packing;
          Alcotest.test_case "mk_and rules" `Quick test_mk_and_rules;
          Alcotest.test_case "strash off" `Quick test_strash_off;
          Alcotest.test_case "simulate" `Quick test_simulate ] );
      ( "equivalence",
        [ qc qcheck_round_trip;
          qc qcheck_passes_preserve;
          qc qcheck_subject_projection;
          qc qcheck_simulate_agrees;
          qc qcheck_balance_depth;
          qc qcheck_pass_determinism;
          qc qcheck_read_only ] );
      ( "golden",
        [ Alcotest.test_case "strash reduction pins" `Quick
            test_golden_strash_reduction ] ) ]
