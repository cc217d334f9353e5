(* Identity pins for the logic front end: the Optimize.script_area result
   and the Orchestrate.prepare candidate table on the three presets (scale
   0.05, seed 1) and every golden BLIF, and the script_area result alone
   on TOO_LARGE-like 0.25. The subject pins add the
   Decompose.subject_of_network gate array and the factored literal count
   of each design after script_area and after script_light, of
   TOO_LARGE-like 0.25 after script_area and of PDC-like 0.25 after
   script_light. Speed-ups of the front end (shared work across
   candidates, memoized extraction rounds, set-bit cube and kernel walks,
   single-pass algebraic division) must leave every figure unchanged.
   Update the pins only for a deliberate change in what the front end
   computes. *)

open Cals_logic
module Subject = Cals_netlist.Subject
module Presets = Cals_workload.Presets

let golden_dir =
  Option.value (Sys.getenv_opt "CALS_GOLDEN_DIR") ~default:"golden"

(* FNV-1a, 64 bit. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let designs =
  [ ("spla", fun () -> Presets.spla_like ~scale:0.05 ~seed:1 ());
    ("pdc", fun () -> Presets.pdc_like ~scale:0.05 ~seed:1 ());
    ("too_large", fun () -> Presets.too_large_like ~scale:0.05 ~seed:1 ()) ]
  @ List.map
      (fun name ->
        (name, fun () -> Result.get_ok (Blif.load (Filename.concat golden_dir name))))
      [ "ml_control_10.blif"; "ml_deep_08.blif"; "pla_shared_08.blif";
        "pla_small_06.blif"; "pla_wide_10.blif" ]

let opt_int = function None -> "-" | Some n -> string_of_int n

let area net =
  let opt = Network.copy net in
  Optimize.script_area opt;
  opt

let light net =
  let opt = Network.copy net in
  Optimize.script_light opt;
  opt

(* The script_area line: live nodes, literals and the digest of the
   written network. *)
let script_line opt =
  let s = Optimize.stats opt in
  Printf.sprintf "script_area live=%d lits=%d blif=%s" s.live_nodes
    s.literals (fnv64 (Blif.print opt))

(* The subject line: base gates, factored literals and the digest of the
   gate array and outputs. *)
let subject_line net =
  let s = Decompose.subject_of_network net in
  let b = Buffer.create 4096 in
  Array.iter
    (function
      | Subject.Pi i -> Printf.bprintf b "p%d;" i
      | Subject.Inv x -> Printf.bprintf b "i%d;" x
      | Subject.Nand2 (x, y) -> Printf.bprintf b "n%d,%d;" x y)
    s.gates;
  Array.iter (fun (name, d) -> Printf.bprintf b "o%s=%d;" name d) s.outputs;
  Printf.sprintf "subject gates=%d flits=%d digest=%s" (Subject.num_gates s)
    (Decompose.factored_literals net)
    (fnv64 (Buffer.contents b))

(* One line for the script_area result, then one per prepared candidate;
   [blif] is the digest of the written network. *)
let table net =
  let script = script_line (area net) in
  let rows =
    List.map
      (fun (p : Orchestrate.prepared) ->
        Printf.sprintf "%s gates=%d ands=%s depth=%s blif=%s" p.label
          (Orchestrate.subject_gates p.subject)
          (opt_int p.aig_ands) (opt_int p.aig_depth)
          (fnv64 (Blif.print p.network)))
      (Orchestrate.prepare ~budget:8 net)
  in
  script :: rows

let pins =
  [ ( "spla",
      [ "script_area live=138 lits=946 blif=55f71797b5947494";
        "baseline gates=1467 ands=- depth=- blif=55f71797b5947494";
        "aig:strash gates=1250 ands=694 depth=10 blif=a5e25e76dc181247";
        "aig:strash,rewrite gates=1250 ands=694 depth=10 blif=a5e25e76dc181247";
        "aig:strash,dce,cse,constprop,balance gates=1240 ands=689 depth=7 blif=0d7e342298c052a8";
        "aig:strash,rewrite,balance gates=1240 ands=689 depth=7 blif=4c1196fd6a48732e";
        "aig:strash,balance gates=1240 ands=689 depth=7 blif=4c1196fd6a48732e";
        "aig:strash,cse,rewrite gates=1248 ands=693 depth=14 blif=6eae8efb6e974e06";
        "aig:strash,cse gates=1248 ands=693 depth=14 blif=6eae8efb6e974e06";
        "aig:strash,rewrite,cse,balance,rewrite gates=1240 ands=689 depth=7 blif=0d7e342298c052a8" ] );
    ( "pdc",
      [ "script_area live=121 lits=955 blif=57bcb23fa77008b7";
        "baseline gates=1488 ands=- depth=- blif=57bcb23fa77008b7";
        "aig:strash gates=1242 ands=693 depth=9 blif=e656c6ffbd49e9ba";
        "aig:strash,rewrite gates=1242 ands=693 depth=9 blif=e656c6ffbd49e9ba";
        "aig:strash,dce,cse,constprop,balance gates=1234 ands=689 depth=7 blif=6dd42e0f0f27b3a8";
        "aig:strash,rewrite,balance gates=1234 ands=689 depth=7 blif=4790f696d32b28da";
        "aig:strash,balance gates=1234 ands=689 depth=7 blif=4790f696d32b28da";
        "aig:strash,cse,rewrite gates=1242 ands=693 depth=14 blif=843b9ae72045f4e1";
        "aig:strash,cse gates=1242 ands=693 depth=14 blif=843b9ae72045f4e1";
        "aig:strash,rewrite,cse,balance,rewrite gates=1234 ands=689 depth=7 blif=6dd42e0f0f27b3a8" ] );
    ( "too_large",
      [ "script_area live=147 lits=1082 blif=b27e100113a26d62";
        "baseline gates=1559 ands=- depth=- blif=b27e100113a26d62";
        "aig:strash gates=672 ands=443 depth=63 blif=087cfb6f84f46cc4";
        "aig:strash,rewrite gates=503 ands=320 depth=44 blif=047167b7ef9fe1e3";
        "aig:strash,dce,cse,constprop,balance gates=574 ands=374 depth=52 blif=f733e52e0a50b7c0";
        "aig:strash,rewrite,balance gates=498 ands=316 depth=38 blif=b8f0bc27269b3c6f";
        "aig:strash,balance gates=574 ands=374 depth=52 blif=ac1583529e658160";
        "aig:strash,cse,rewrite gates=509 ands=322 depth=43 blif=cee246fdb45d8da6";
        "aig:strash,cse gates=575 ands=375 depth=53 blif=32daccf50c9f1d1d";
        "aig:strash,rewrite,cse,balance,rewrite gates=490 ands=312 depth=37 blif=0e81a109d7a4b393" ] );
    ( "ml_control_10.blif",
      [ "script_area live=13 lits=84 blif=bea0c743c12da425";
        "baseline gates=127 ands=- depth=- blif=bea0c743c12da425";
        "aig:strash gates=46 ands=29 depth=20 blif=4c07e865c046b1d2";
        "aig:strash,rewrite gates=22 ands=12 depth=7 blif=854190b72e07efb6";
        "aig:strash,dce,cse,constprop,balance gates=36 ands=23 depth=11 blif=889081ce370001d9";
        "aig:strash,rewrite,balance gates=22 ands=12 depth=5 blif=7917c2f6b12a9785";
        "aig:strash,balance gates=36 ands=23 depth=11 blif=4520f110a77b9ea3";
        "aig:strash,cse,rewrite gates=22 ands=12 depth=6 blif=72701cf090618786";
        "aig:strash,cse gates=36 ands=23 depth=11 blif=864dde92798aa665";
        "aig:strash,rewrite,cse,balance,rewrite gates=22 ands=12 depth=5 blif=387bdc24a10d4b93" ] );
    ( "ml_deep_08.blif",
      [ "script_area live=17 lits=74 blif=517d69bc072b1c95";
        "baseline gates=119 ands=- depth=- blif=517d69bc072b1c95";
        "aig:strash gates=63 ands=40 depth=21 blif=847d1b25812c1ad2";
        "aig:strash,rewrite gates=36 ands=20 depth=10 blif=bf9391050bb6f318";
        "aig:strash,dce,cse,constprop,balance gates=61 ands=39 depth=18 blif=ba5cf632dfe9b900";
        "aig:strash,rewrite,balance gates=34 ands=19 depth=8 blif=868827c674f6aa7e";
        "aig:strash,balance gates=61 ands=39 depth=18 blif=14ee337279b16073";
        "aig:strash,cse,rewrite gates=34 ands=19 depth=10 blif=1f60b058a62689b9";
        "aig:strash,cse gates=61 ands=39 depth=20 blif=07613e1d5f7d5fd7";
        "aig:strash,rewrite,cse,balance,rewrite gates=33 ands=18 depth=8 blif=cc5faed7b64073f1" ] );
    ( "pla_shared_08.blif",
      [ "script_area live=40 lits=248 blif=70bfe3c3515eb031";
        "baseline gates=402 ands=- depth=- blif=70bfe3c3515eb031";
        "aig:strash gates=324 ands=181 depth=10 blif=315e250472772bbc";
        "aig:strash,rewrite gates=324 ands=181 depth=10 blif=315e250472772bbc";
        "aig:strash,dce,cse,constprop,balance gates=318 ands=178 depth=8 blif=17f97841482721bf";
        "aig:strash,rewrite,balance gates=318 ands=178 depth=8 blif=70a9d3f10ec25e25";
        "aig:strash,balance gates=318 ands=178 depth=8 blif=70a9d3f10ec25e25";
        "aig:strash,cse,rewrite gates=324 ands=181 depth=20 blif=2f3f69734ff41778";
        "aig:strash,cse gates=324 ands=181 depth=20 blif=2f3f69734ff41778";
        "aig:strash,rewrite,cse,balance,rewrite gates=318 ands=178 depth=8 blif=17f97841482721bf" ] );
    ( "pla_small_06.blif",
      [ "script_area live=26 lits=144 blif=8bd33d0bd6757344";
        "baseline gates=188 ands=- depth=- blif=8bd33d0bd6757344";
        "aig:strash gates=147 ands=82 depth=8 blif=2db1acaf321da3ef";
        "aig:strash,rewrite gates=147 ands=82 depth=8 blif=2db1acaf321da3ef";
        "aig:strash,dce,cse,constprop,balance gates=145 ands=81 depth=7 blif=04fa75f58e1131a4";
        "aig:strash,rewrite,balance gates=145 ands=81 depth=7 blif=c2b3b84172c65a65";
        "aig:strash,balance gates=145 ands=81 depth=7 blif=c2b3b84172c65a65";
        "aig:strash,cse,rewrite gates=147 ands=82 depth=14 blif=1c3afee26ab5658f";
        "aig:strash,cse gates=147 ands=82 depth=14 blif=1c3afee26ab5658f";
        "aig:strash,rewrite,cse,balance,rewrite gates=145 ands=81 depth=7 blif=04fa75f58e1131a4" ] );
    ( "pla_wide_10.blif",
      [ "script_area live=33 lits=296 blif=4b50ffd7d8b5fdb0";
        "baseline gates=490 ands=- depth=- blif=4b50ffd7d8b5fdb0";
        "aig:strash gates=370 ands=219 depth=10 blif=d3464346ed0b0bfb";
        "aig:strash,rewrite gates=370 ands=219 depth=10 blif=d3464346ed0b0bfb";
        "aig:strash,dce,cse,constprop,balance gates=366 ands=217 depth=8 blif=c13e5d3c63933929";
        "aig:strash,rewrite,balance gates=366 ands=217 depth=8 blif=931fb34b8ffb4f0f";
        "aig:strash,balance gates=366 ands=217 depth=8 blif=931fb34b8ffb4f0f";
        "aig:strash,cse,rewrite gates=370 ands=219 depth=15 blif=154a0b9cf1f3ce95";
        "aig:strash,cse gates=370 ands=219 depth=15 blif=154a0b9cf1f3ce95";
        "aig:strash,rewrite,cse,balance,rewrite gates=366 ands=217 depth=8 blif=c13e5d3c63933929" ] ) ]

(* The calsbench orchestrate design, script_area and subject lines only
   (preparing its candidates is slow for a unit test). Its second cube
   extraction hits the 64-round cap with up to 2,381 candidates a round,
   most of them evaluated as in the round before: the only pin whose count
   table resizes and whose savings are mostly reused. It also pins
   Gen.multilevel at this scale. *)
let script_pins =
  [ ( "too_large 0.25",
      (fun () -> Presets.too_large_like ~scale:0.25 ~seed:1 ()),
      [ "script_area live=562 lits=5962 blif=a2c379c053630790";
        "subject gates=6532 flits=3403 digest=d49ba2b3a28f2695" ] ) ]

let test_script_pins () =
  List.iter
    (fun (name, make, want) ->
      let opt = area (make ()) in
      Alcotest.(check (list string)) name want [ script_line opt; subject_line opt ])
    script_pins

(* Per design: the subject after script_area, then after script_light. *)
let subject_pins =
  [ ( "spla",
      [ "subject gates=1467 flits=944 digest=0d292aa5900dde08";
        "subject gates=2586 flits=1708 digest=5f67810fe057b82a" ] );
    ( "pdc",
      [ "subject gates=1488 flits=946 digest=675f65f89dff626c";
        "subject gates=2441 flits=1559 digest=0eee2d92355521d5" ] );
    ( "too_large",
      [ "subject gates=1559 flits=800 digest=07cd107b03c5645d";
        "subject gates=1527 flits=814 digest=a112abf93072a6e7" ] );
    ( "ml_control_10.blif",
      [ "subject gates=127 flits=65 digest=dcd4c81ed9733fc1";
        "subject gates=205 flits=114 digest=4d3b6bd434daf0ca" ] );
    ( "ml_deep_08.blif",
      [ "subject gates=119 flits=63 digest=9a8fcc608781eca2";
        "subject gates=181 flits=100 digest=6672d44f0ed55ecb" ] );
    ( "pla_shared_08.blif",
      [ "subject gates=402 flits=243 digest=462d6e1a7f6f4682";
        "subject gates=566 flits=342 digest=1be3ab7b6a064d65" ] );
    ( "pla_small_06.blif",
      [ "subject gates=188 flits=144 digest=1df666abcd0ca766";
        "subject gates=257 flits=186 digest=8a4e03d2b690a0d4" ] );
    ( "pla_wide_10.blif",
      [ "subject gates=490 flits=276 digest=a24c83fe9c08377d";
        "subject gates=655 flits=346 digest=911d9545dbfeace7" ] ) ]

(* The calsbench serve workload's heavy job, after script_light. *)
let light_pin =
  ("pdc 0.25", "subject gates=7788 flits=5017 digest=c6fdcf4214c6e621")

let test_subject_pins () =
  List.iter
    (fun (name, make) ->
      let net = make () in
      let got = [ subject_line (area net); subject_line (light net) ] in
      let want = Option.value ~default:[] (List.assoc_opt name subject_pins) in
      Alcotest.(check (list string)) name want got)
    designs;
  let name, want = light_pin in
  Alcotest.(check string) name want
    (subject_line (light (Presets.pdc_like ~scale:0.25 ~seed:1 ())))

let test_pins () =
  List.iter
    (fun (name, make) ->
      let got = table (make ()) in
      let want = Option.value ~default:[] (List.assoc_opt name pins) in
      Alcotest.(check (list string)) name want got)
    designs

let () =
  Alcotest.run "identity"
    [ ( "front end",
        [ Alcotest.test_case "pins" `Quick test_pins;
          Alcotest.test_case "script_area pins" `Quick test_script_pins;
          Alcotest.test_case "subject pins" `Quick test_subject_pins ] ) ]
