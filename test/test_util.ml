module Rng = Cals_util.Rng
module Geom = Cals_util.Geom
module Union_find = Cals_util.Union_find
module Pool = Cals_util.Pool
module Grid2d = Cals_util.Grid2d
module Tables = Cals_util.Tables

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------- Rng ------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_range_inclusive () =
  let rng = Rng.create 9 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 10_000 do
    let v = Rng.range rng 3 5 in
    if v < 3 || v > 5 then Alcotest.failf "out of range: %d" v;
    if v = 3 then seen_lo := true;
    if v = 5 then seen_hi := true
  done;
  Alcotest.(check bool) "hits lo" true !seen_lo;
  Alcotest.(check bool) "hits hi" true !seen_hi

let test_rng_sample_distinct () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let s = Rng.sample rng 10 30 in
    Alcotest.(check int) "length" 10 (List.length s);
    Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s));
    List.iter (fun v -> if v < 0 || v >= 30 then Alcotest.fail "range") s
  done

let test_rng_sample_full () =
  let rng = Rng.create 12 in
  let s = Rng.sample rng 5 5 in
  Alcotest.(check (list int)) "permutation of all" [ 0; 1; 2; 3; 4 ]
    (List.sort compare s)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_float_bounds () =
  let rng = Rng.create 21 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 3.0 in
    if v < 0.0 || v >= 3.0 then Alcotest.failf "float out of bounds: %f" v
  done

(* ------------------------- Geom ------------------------- *)

let test_manhattan () =
  check_float "manhattan" 7.0 (Geom.manhattan (Geom.point 1.0 2.0) (Geom.point 4.0 6.0))

let test_euclidean () =
  check_float "euclidean" 5.0 (Geom.euclidean (Geom.point 0.0 0.0) (Geom.point 3.0 4.0))

let test_bbox () =
  let b =
    List.fold_left Geom.bbox_add Geom.bbox_empty
      [ Geom.point 1.0 5.0; Geom.point 3.0 2.0 ]
  in
  check_float "half perimeter" 5.0 (Geom.half_perimeter b)

let test_clamp () =
  check_float "low" 1.0 (Geom.clamp 1.0 2.0 0.5);
  check_float "high" 2.0 (Geom.clamp 1.0 2.0 9.0);
  check_float "mid" 1.5 (Geom.clamp 1.0 2.0 1.5)

(* ------------------------- Pool ------------------------- *)

let test_pool_map_array_matches_sequential () =
  let pool = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "jobs clamped" 4 (Pool.jobs pool);
  let arr = Array.init 101 (fun i -> i * 3) in
  let expected = Array.mapi (fun i x -> i + (x * x)) arr in
  for _ = 1 to 5 do
    let got = Pool.map_array pool ~f:(fun i x -> i + (x * x)) arr in
    Alcotest.(check (array int)) "matches Array.mapi" expected got
  done;
  Alcotest.(check (array int)) "empty input" [||]
    (Pool.map_array pool ~f:(fun _ x -> x) [||]);
  Alcotest.(check (array int)) "single element" [| 49 |]
    (Pool.map_array pool ~f:(fun _ x -> x * x) [| 7 |])

let test_pool_sequential_fallback () =
  let pool = Pool.create ~jobs:1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let got = Pool.map_array pool ~f:(fun i x -> i * x) (Array.make 10 3) in
  Alcotest.(check (array int)) "jobs=1 works"
    (Array.init 10 (fun i -> i * 3))
    got

let test_pool_exception_propagates () =
  let pool = Pool.create ~jobs:3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  match
    Pool.map_array pool
      ~f:(fun i _ -> if i = 17 then failwith "boom" else i)
      (Array.make 64 0)
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~jobs:2 in
  ignore (Pool.map_array pool ~f:(fun i _ -> i) (Array.make 4 ()));
  Pool.shutdown pool;
  Pool.shutdown pool

let test_pool_map_after_shutdown_raises () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  match Pool.map_array pool ~f:(fun i _ -> i) (Array.make 4 ()) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------- Union_find ------------------------- *)

let test_union_find_basic () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial sets" 5 (Union_find.count uf);
  Alcotest.(check bool) "union" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "re-union" false (Union_find.union uf 0 1);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  Alcotest.(check int) "sets after" 4 (Union_find.count uf)

let test_union_find_transitive () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 3 4);
  Alcotest.(check bool) "transitive" true (Union_find.same uf 0 2);
  Alcotest.(check bool) "separate" false (Union_find.same uf 2 3);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "merged" true (Union_find.same uf 0 4)

(* ------------------------- Grid2d ------------------------- *)

let test_grid_get_set () =
  let g = Grid2d.create ~cols:3 ~rows:2 0.0 in
  Grid2d.set g 2 1 5.0;
  Grid2d.add g 2 1 1.5;
  check_float "get" 6.5 (Grid2d.get g 2 1);
  check_float "other" 0.0 (Grid2d.get g 0 0)

let test_grid_bounds () =
  let g = Grid2d.create ~cols:3 ~rows:2 0.0 in
  Alcotest.check_raises "col out of range"
    (Invalid_argument "Grid2d: (3,0) outside 3x2") (fun () ->
      ignore (Grid2d.get g 3 0))

let test_grid_render () =
  let g = Grid2d.create ~cols:2 ~rows:2 0.0 in
  Grid2d.set g 0 0 1.0;
  let s = Grid2d.render_ascii ~levels:" #" g in
  Alcotest.(check string) "render" "  \n# \n" s

(* ------------------------- Tables ------------------------- *)

let test_tables_fmt_int () =
  Alcotest.(check string) "thousands" "126,394" (Tables.fmt_int 126394);
  Alcotest.(check string) "small" "42" (Tables.fmt_int 42);
  Alcotest.(check string) "negative" "-1,234" (Tables.fmt_int (-1234))

let test_tables_render () =
  let s =
    Tables.render ~header:[ "a"; "b" ] [ Tables.Left; Tables.Right ]
      [ [ "xx"; "1" ]; [ "y"; "22" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.contains s '|')

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "range inclusive" `Quick test_rng_range_inclusive;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "sample full" `Quick test_rng_sample_full;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        ] );
      ( "geom",
        [
          Alcotest.test_case "manhattan" `Quick test_manhattan;
          Alcotest.test_case "euclidean" `Quick test_euclidean;
          Alcotest.test_case "bbox" `Quick test_bbox;
          Alcotest.test_case "clamp" `Quick test_clamp;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map_array" `Quick
            test_pool_map_array_matches_sequential;
          Alcotest.test_case "jobs=1 fallback" `Quick
            test_pool_sequential_fallback;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "map after shutdown raises" `Quick
            test_pool_map_after_shutdown_raises;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_union_find_basic;
          Alcotest.test_case "transitive" `Quick test_union_find_transitive;
        ] );
      ( "grid2d",
        [
          Alcotest.test_case "get/set" `Quick test_grid_get_set;
          Alcotest.test_case "bounds" `Quick test_grid_bounds;
          Alcotest.test_case "render" `Quick test_grid_render;
        ] );
      ( "tables",
        [
          Alcotest.test_case "fmt_int" `Quick test_tables_fmt_int;
          Alcotest.test_case "render" `Quick test_tables_render;
        ] );
    ]
