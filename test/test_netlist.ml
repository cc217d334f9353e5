module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Cell = Cals_cell.Cell
module Library = Cals_cell.Library
module Rng = Cals_util.Rng
module Geom = Cals_util.Geom

let lib = Cals_cell.Stdlib_018.library

(* ------------------------- Subject builder ------------------------- *)

let small_subject () =
  (* f = NOT(a AND b) ; g = NOT(NOT(a AND b) AND c) *)
  let b = Subject.builder () in
  let a = Subject.add_pi b "a" in
  let bb = Subject.add_pi b "b" in
  let c = Subject.add_pi b "c" in
  let n1 = Subject.add_nand b a bb in
  let n2 = Subject.add_nand b n1 c in
  Subject.set_output b "f" n1;
  Subject.set_output b "g" n2;
  Subject.freeze b

let test_builder_counts () =
  let s = small_subject () in
  Alcotest.(check int) "nodes" 5 (Subject.num_nodes s);
  Alcotest.(check int) "pis" 3 (Subject.num_pis s);
  Alcotest.(check int) "gates" 2 (Subject.num_gates s);
  Alcotest.(check int) "nand2" 2 (Subject.num_nand2 s);
  Alcotest.(check int) "inv" 0 (Subject.num_inv s)

let test_builder_strash () =
  let b = Subject.builder () in
  let a = Subject.add_pi b "a" in
  let bb = Subject.add_pi b "b" in
  let n1 = Subject.add_nand b a bb in
  let n2 = Subject.add_nand b bb a in
  Alcotest.(check int) "commutative strash" n1 n2;
  let i1 = Subject.add_inv b n1 in
  let i2 = Subject.add_inv b n1 in
  Alcotest.(check int) "inv strash" i1 i2

let test_builder_duplicate_pi () =
  let b = Subject.builder () in
  let _ = Subject.add_pi b "a" in
  Alcotest.check_raises "duplicate pi"
    (Invalid_argument "Subject.add_pi: duplicate a") (fun () ->
      ignore (Subject.add_pi b "a"))

let test_builder_dangling () =
  let b = Subject.builder () in
  Alcotest.check_raises "dangling" (Invalid_argument "Subject: dangling node reference")
    (fun () -> ignore (Subject.add_inv b 7))

let test_builder_const () =
  let b = Subject.builder () in
  let zero = Subject.add_const b false in
  let one = Subject.add_const b true in
  let zero2 = Subject.add_const b false in
  Alcotest.(check int) "const0 shared" zero zero2;
  Subject.set_output b "z" zero;
  Subject.set_output b "o" one;
  let s = Subject.freeze b in
  let out = Subject.simulate s (Subject.random_vectors (Rng.create 1) s) in
  Alcotest.(check int64) "zero" 0L out.(0);
  Alcotest.(check int64) "one" (-1L) out.(1)

let test_simulate_semantics () =
  let s = small_subject () in
  let out = Subject.simulate s [| -1L; -1L; -1L |] in
  Alcotest.(check int64) "f = nand(1,1)" 0L out.(0);
  Alcotest.(check int64) "g = nand(0,1)" (-1L) out.(1);
  let out = Subject.simulate s [| 0L; -1L; -1L |] in
  Alcotest.(check int64) "f = nand(0,1)" (-1L) out.(0);
  Alcotest.(check int64) "g = nand(1,1)" 0L out.(1)

let test_fanouts () =
  let s = small_subject () in
  let fo = Subject.fanouts s in
  (* Node 3 is n1 = nand(a,b): read by n2 only. *)
  Alcotest.(check (list int)) "n1 fanouts" [ 4 ] fo.(3);
  let counts = Subject.fanout_counts s in
  (* n1 drives n2 and the output f. *)
  Alcotest.(check int) "n1 count includes PO" 2 counts.(3);
  let refs = Subject.output_refs s in
  Alcotest.(check int) "n1 po refs" 1 refs.(3)

(* ------------------------- Mapped ------------------------- *)

let inv_cell = Library.find lib "INV"
let nand2_cell = Library.find lib "NAND2"
let origin = Geom.point 0.0 0.0

let small_mapped () =
  (* u0 = NAND2(a, b); u1 = INV(u0); outputs f=u1, g=u0 *)
  let instances =
    [|
      { Mapped.cell = nand2_cell; fanins = [| Mapped.Of_pi 0; Mapped.Of_pi 1 |];
        seed = origin };
      { Mapped.cell = inv_cell; fanins = [| Mapped.Of_inst 0 |]; seed = origin };
    |]
  in
  Mapped.make ~pi_names:[| "a"; "b" |] ~instances
    ~outputs:[| ("f", Mapped.Of_inst 1); ("g", Mapped.Of_inst 0) |]

let test_mapped_validation () =
  (* Fanin referencing a later instance breaks topological order. *)
  let bad () =
    ignore
      (Mapped.make ~pi_names:[| "a" |]
         ~instances:
           [| { Mapped.cell = inv_cell; fanins = [| Mapped.Of_inst 0 |]; seed = origin } |]
         ~outputs:[||])
  in
  Alcotest.check_raises "topo violation"
    (Invalid_argument "Mapped: fanin breaks topological order") bad;
  let bad_arity () =
    ignore
      (Mapped.make ~pi_names:[| "a" |]
         ~instances:
           [| { Mapped.cell = nand2_cell; fanins = [| Mapped.Of_pi 0 |]; seed = origin } |]
         ~outputs:[||])
  in
  try
    bad_arity ();
    Alcotest.fail "arity accepted"
  with Invalid_argument _ -> ()

let test_mapped_metrics () =
  let m = small_mapped () in
  Alcotest.(check int) "cells" 2 (Mapped.num_cells m);
  Alcotest.(check (float 1e-6)) "area" (inv_cell.Cell.area +. nand2_cell.Cell.area)
    (Mapped.total_area m);
  Alcotest.(check (list (pair string int))) "histogram"
    [ ("INV", 1); ("NAND2", 1) ]
    (Mapped.cell_histogram m)

let test_mapped_simulate () =
  let m = small_mapped () in
  let out = Mapped.simulate m [| -1L; -1L |] in
  Alcotest.(check int64) "f = a.b" (-1L) out.(0);
  Alcotest.(check int64) "g = nand" 0L out.(1)

let test_mapped_nets () =
  let m = small_mapped () in
  let nets = Mapped.nets m in
  Alcotest.(check int) "net count" 4 (Array.length nets);
  (* PI a drives pin 0 of instance 0. *)
  (match nets.(0).Mapped.sinks with
  | [ Mapped.Cell_pin (0, 0) ] -> ()
  | _ -> Alcotest.fail "pi net sinks");
  (* Instance 0 drives instance 1 pin 0 and PO g. *)
  (match nets.(Mapped.signal_index m (Mapped.Of_inst 0)).Mapped.sinks with
  | [ Mapped.Cell_pin (1, 0); Mapped.Po 1 ] -> ()
  | _ -> Alcotest.fail "inst net sinks");
  (* Instance 1 drives PO f only. *)
  match nets.(Mapped.signal_index m (Mapped.Of_inst 1)).Mapped.sinks with
  | [ Mapped.Po 0 ] -> ()
  | _ -> Alcotest.fail "po sink"

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_mapped_verilog () =
  let m = small_mapped () in
  let v = Mapped.to_verilog ~module_name:"top" m in
  Alcotest.(check bool) "module header" true
    (String.length v > 11 && String.sub v 0 11 = "module top(");
  Alcotest.(check bool) "instantiates NAND2" true (contains_substring v "NAND2 u0");
  Alcotest.(check bool) "assigns output" true (contains_substring v "assign f = n1")

let () =
  Alcotest.run "netlist"
    [
      ( "subject",
        [
          Alcotest.test_case "builder counts" `Quick test_builder_counts;
          Alcotest.test_case "strash" `Quick test_builder_strash;
          Alcotest.test_case "duplicate pi" `Quick test_builder_duplicate_pi;
          Alcotest.test_case "dangling ref" `Quick test_builder_dangling;
          Alcotest.test_case "constants" `Quick test_builder_const;
          Alcotest.test_case "simulate" `Quick test_simulate_semantics;
          Alcotest.test_case "fanouts" `Quick test_fanouts;
        ] );
      ( "mapped",
        [
          Alcotest.test_case "validation" `Quick test_mapped_validation;
          Alcotest.test_case "metrics" `Quick test_mapped_metrics;
          Alcotest.test_case "simulate" `Quick test_mapped_simulate;
          Alcotest.test_case "nets" `Quick test_mapped_nets;
          Alcotest.test_case "verilog" `Quick test_mapped_verilog;
        ] );
    ]
