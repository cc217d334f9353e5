(* Identity pins for the logic front end: the Optimize.script_area result
   and the Orchestrate.prepare candidate table on the three presets (scale
   0.05, seed 1) and every golden BLIF, and the script_area result alone
   on TOO_LARGE-like 0.25. Speed-ups of the front end (shared work across
   candidates, memoized extraction rounds, set-bit cube and kernel walks)
   must leave every figure unchanged. Update the pins only for a
   deliberate change in what the front end computes. *)

open Cals_logic
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

(* The script_area line: live nodes, literals and the digest of the
   written network. *)
let script_line net =
  let opt = Network.copy net in
  Optimize.script_area opt;
  let s = Optimize.stats opt in
  Printf.sprintf "script_area live=%d lits=%d blif=%s" s.live_nodes
    s.literals (fnv64 (Blif.print opt))

(* One line for the script_area result, then one per prepared candidate;
   [blif] is the digest of the written network. *)
let table net =
  let script = script_line net in
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

(* The calsbench orchestrate design, script_area line only (preparing its
   candidates is slow for a unit test). Its second cube extraction hits
   the 64-round cap with up to 2,381 candidates a round, most of them
   evaluated as in the round before: the only pin whose count table
   resizes and whose savings are mostly reused. It also pins
   Gen.multilevel at this scale. *)
let script_pins =
  [ ( "too_large 0.25",
      (fun () -> Presets.too_large_like ~scale:0.25 ~seed:1 ()),
      "script_area live=562 lits=5962 blif=a2c379c053630790" ) ]

let test_script_pins () =
  List.iter
    (fun (name, make, want) ->
      Alcotest.(check string) name want (script_line (make ())))
    script_pins

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
          Alcotest.test_case "script_area pins" `Quick test_script_pins ] ) ]
