module Pattern = Cals_cell.Pattern
module Cell = Cals_cell.Cell
module Library = Cals_cell.Library
module Stdlib_018 = Cals_cell.Stdlib_018

let lib = Stdlib_018.library

(* ------------------------- Pattern ------------------------- *)

let nand2 = Pattern.Nand (Pattern.Var 0, Pattern.Var 1)
let inv = Pattern.Inv (Pattern.Var 0)
let aoi21 = Pattern.Inv (Pattern.Nand (nand2, Pattern.Inv (Pattern.Var 2)))

let test_pattern_metrics () =
  Alcotest.(check int) "nand2 vars" 2 (Pattern.num_vars nand2);
  Alcotest.(check int) "aoi21 vars" 3 (Pattern.num_vars aoi21)

let test_pattern_eval () =
  Alcotest.(check bool) "nand 11" false (Pattern.eval nand2 [| true; true |]);
  Alcotest.(check bool) "nand 01" true (Pattern.eval nand2 [| false; true |]);
  Alcotest.(check bool) "inv" false (Pattern.eval inv [| true |]);
  (* AOI21 = NOT(ab + c) *)
  Alcotest.(check bool) "aoi21 ab" false (Pattern.eval aoi21 [| true; true; false |]);
  Alcotest.(check bool) "aoi21 c" false (Pattern.eval aoi21 [| false; false; true |]);
  Alcotest.(check bool) "aoi21 none" true (Pattern.eval aoi21 [| false; true; false |])

let test_pattern_eval64_matches_eval () =
  let patterns = List.concat_map (fun c -> c.Cell.patterns) (Library.cells lib) in
  List.iteri
    (fun i p ->
      let n = Pattern.num_vars p in
      for row = 0 to (1 lsl n) - 1 do
        let bools = Array.init n (fun i -> row land (1 lsl i) <> 0) in
        let vecs = Array.map (fun b -> if b then 1L else 0L) bools in
        let expect = Pattern.eval p bools in
        let got = Int64.logand (Pattern.eval64 p vecs) 1L = 1L in
        if expect <> got then
          Alcotest.failf "eval64 mismatch on pattern %d row %d" i row
      done)
    patterns

let test_pattern_validate () =
  (match Pattern.validate (Pattern.Nand (Pattern.Var 0, Pattern.Var 2)) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "skipped variable accepted");
  match Pattern.validate aoi21 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ------------------------- Cell ------------------------- *)

let test_cell_arity_check () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "BAD: patterns disagree on arity") (fun () ->
      ignore
        (Cell.make ~name:"BAD" ~width_sites:2 ~site_width:0.66 ~row_height:5.04
           ~input_cap_pf:0.004 ~intrinsic_ns:0.02 ~drive_kohm:3.0
           [ nand2; inv ]))

let test_cell_function_check () =
  Alcotest.check_raises "function mismatch"
    (Invalid_argument "BAD2: patterns disagree on function") (fun () ->
      ignore
        (Cell.make ~name:"BAD2" ~width_sites:2 ~site_width:0.66 ~row_height:5.04
           ~input_cap_pf:0.004 ~intrinsic_ns:0.02 ~drive_kohm:3.0
           [ nand2; Pattern.Inv nand2 ]))

let test_cell_area () =
  let c = Library.find lib "INV" in
  Alcotest.(check (float 1e-6)) "inv area" (2.0 *. 0.66 *. 5.04) c.Cell.area

let test_cell_delay_linear () =
  let c = Library.find lib "NAND2" in
  let d0 = Cell.delay_ns c ~load_pf:0.0 in
  let d1 = Cell.delay_ns c ~load_pf:0.1 in
  Alcotest.(check (float 1e-9)) "intrinsic" c.Cell.intrinsic_ns d0;
  Alcotest.(check bool) "monotone in load" true (d1 > d0)

(* ------------------------- Library ------------------------- *)

let test_library_lookup () =
  Alcotest.(check string) "inv" "INV" (Library.find lib "INV").Cell.name;
  Alcotest.(check string) "nand2" "NAND2" (Library.find lib "NAND2").Cell.name;
  Alcotest.(check bool) "missing" true (Library.find_opt lib "NONSUCH" = None);
  Alcotest.(check int) "cell count" 18 (Library.size lib)

let test_library_requires_base_cells () =
  let geometry = Library.geometry lib in
  let wire = Library.wire lib in
  Alcotest.check_raises "missing base" (Invalid_argument "Library.make: missing INV")
    (fun () -> ignore (Library.make ~name:"empty" geometry wire []))

(* Truth tables of the synthetic library against reference functions. *)
let test_library_functions () =
  let check name arity f =
    let cell = Library.find lib name in
    Alcotest.(check int) (name ^ " arity") arity (Cell.num_inputs cell);
    for row = 0 to (1 lsl arity) - 1 do
      let ins = Array.init arity (fun i -> row land (1 lsl i) <> 0) in
      let words = Array.map (fun b -> if b then -1L else 0L) ins in
      if (Cell.eval64 cell words <> 0L) <> f ins then
        Alcotest.failf "%s wrong at row %d" name row
    done
  in
  check "INV" 1 (fun v -> not v.(0));
  check "BUF" 1 (fun v -> v.(0));
  check "NAND2" 2 (fun v -> not (v.(0) && v.(1)));
  check "NAND3" 3 (fun v -> not (v.(0) && v.(1) && v.(2)));
  check "NAND4" 4 (fun v -> not (v.(0) && v.(1) && v.(2) && v.(3)));
  check "NOR2" 2 (fun v -> not (v.(0) || v.(1)));
  check "NOR3" 3 (fun v -> not (v.(0) || v.(1) || v.(2)));
  check "AND2" 2 (fun v -> v.(0) && v.(1));
  check "AND3" 3 (fun v -> v.(0) && v.(1) && v.(2));
  check "OR2" 2 (fun v -> v.(0) || v.(1));
  check "OR3" 3 (fun v -> v.(0) || v.(1) || v.(2));
  check "AOI21" 3 (fun v -> not ((v.(0) && v.(1)) || v.(2)));
  check "AOI22" 4 (fun v -> not ((v.(0) && v.(1)) || (v.(2) && v.(3))));
  check "OAI21" 3 (fun v -> not ((v.(0) || v.(1)) && v.(2)));
  check "OAI22" 4 (fun v -> not ((v.(0) || v.(1)) && (v.(2) || v.(3))));
  check "XOR2" 2 (fun v -> v.(0) <> v.(1));
  check "XNOR2" 2 (fun v -> v.(0) = v.(1));
  check "MUX21" 3 (fun v -> if v.(2) then v.(1) else v.(0))

(* The Figure-1 premise: multi-input cells are cheaper than composing base
   cells, and the congestion-friendly cover is larger than the min-area
   cover. *)
let test_library_area_ordering () =
  let area n = (Library.find lib n).Cell.area in
  Alcotest.(check bool) "NAND3 < NAND2+INV+NAND2" true
    (area "NAND3" < area "NAND2" +. area "INV" +. area "NAND2");
  Alcotest.(check bool) "AOI21 < 2xNAND2+2xINV" true
    (area "AOI21" < (2.0 *. area "NAND2") +. (2.0 *. area "INV"));
  let min_area_cover = area "NAND3" +. area "AOI21" +. (2.0 *. area "INV") in
  let congestion_cover =
    (2.0 *. area "OR2") +. (2.0 *. area "NAND2") +. area "INV"
  in
  Alcotest.(check bool) "figure-1 ordering" true (min_area_cover < congestion_cover)

(* ------------------------- Liberty ------------------------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_liberty_functions () =
  let f name = Cals_cell.Liberty.function_of_cell (Library.find lib name) in
  Alcotest.(check string) "inv" "!a" (f "INV");
  Alcotest.(check string) "nand2" "!(a b)" (f "NAND2");
  Alcotest.(check string) "aoi21" "((!(a b)) !c)" (f "AOI21")

let test_liberty_print () =
  let text = Cals_cell.Liberty.print lib in
  Alcotest.(check bool) "library header" true (contains text "library (VIRTLIB018)");
  List.iter
    (fun (c : Cell.t) ->
      if not (contains text (Printf.sprintf "cell (%s)" c.Cell.name)) then
        Alcotest.failf "missing cell %s" c.Cell.name)
    (Library.cells lib);
  Alcotest.(check bool) "has output pin" true (contains text "pin (y)");
  Alcotest.(check bool) "has area" true (contains text "area :")

let () =
  Alcotest.run "cell"
    [
      ( "pattern",
        [
          Alcotest.test_case "metrics" `Quick test_pattern_metrics;
          Alcotest.test_case "eval" `Quick test_pattern_eval;
          Alcotest.test_case "eval64 = eval" `Quick test_pattern_eval64_matches_eval;
          Alcotest.test_case "validate" `Quick test_pattern_validate;
        ] );
      ( "cell",
        [
          Alcotest.test_case "arity check" `Quick test_cell_arity_check;
          Alcotest.test_case "function check" `Quick test_cell_function_check;
          Alcotest.test_case "area" `Quick test_cell_area;
          Alcotest.test_case "delay linear" `Quick test_cell_delay_linear;
        ] );
      ( "library",
        [
          Alcotest.test_case "lookup" `Quick test_library_lookup;
          Alcotest.test_case "requires base cells" `Quick
            test_library_requires_base_cells;
          Alcotest.test_case "cell functions" `Quick test_library_functions;
          Alcotest.test_case "figure-1 area ordering" `Quick
            test_library_area_ordering;
        ] );
      ( "liberty",
        [
          Alcotest.test_case "functions" `Quick test_liberty_functions;
          Alcotest.test_case "print" `Quick test_liberty_print;
        ] );
    ]
