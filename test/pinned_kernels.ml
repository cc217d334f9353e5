(* Fixtures for the bit-identity pins on the per-K kernels: the cover DP
   and its extraction (test_core "cover pinned") and the seeded
   placement of the netlists they produce (test_place "pinned").

   Two placed subjects are mapped at every K of the paper's ladder under
   the paper's configuration and under each option variant, so every
   cost branch of the DP runs. The digests hold the float bits of every
   figure, so a change in the order of a floating-point fold moves them. *)

module Cover = Cals_core.Cover
module Mapper = Cals_core.Mapper
module Flow = Cals_core.Flow
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Geom = Cals_util.Geom
module Rng = Cals_util.Rng

let lib = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry lib

type subject = {
  name : string;
  subject : Subject.t;
  positions : Geom.point array;
}

let placed name ~seed ~inputs ~outputs ~products =
  let rng = Rng.create seed in
  let net =
    Cals_workload.Gen.pla ~rng ~inputs ~outputs ~products ~terms_lo:4
      ~terms_hi:10 ()
  in
  Cals_logic.Network.sweep net;
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.55 ~aspect:1.0 ~geometry
  in
  let positions =
    Placement.place_subject subject ~floorplan ~rng:(Rng.create (seed + 100))
  in
  { name; subject; positions }

let subjects =
  lazy
    [
      placed "pla 11" ~seed:11 ~inputs:8 ~outputs:6 ~products:24;
      placed "pla 21" ~seed:21 ~inputs:10 ~outputs:10 ~products:60;
    ]

let variants : (string * (float -> Mapper.options)) list =
  let base k = Mapper.congestion_aware ~k in
  [
    ("congestion_aware", base);
    ("no incremental update", fun k -> { (base k) with incremental_update = false });
    ("no wire2", fun k -> { (base k) with include_wire2 = false });
    ("transitive wire", fun k -> { (base k) with transitive_wire = true });
    ("euclidean", fun k -> { (base k) with distance = Geom.euclidean });
    ( "min delay",
      fun k -> { (base k) with objective = Cover.Min_delay { load_pf = 0.02 } } );
    ("t = 0.5", fun k -> { (base k) with t = 0.5 });
  ]

(* Every (K, mapping) of one subject under one variant, in ladder order. *)
let maps s options =
  List.map
    (fun k ->
      (k, Mapper.map s.subject ~library:lib ~positions:s.positions (options k)))
    Flow.default_k_schedule

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ','

let add_bits b x =
  Buffer.add_string b (Int64.to_string (Int64.bits_of_float x));
  Buffer.add_char b ','
let add_point b (p : Geom.point) = add_bits b p.Geom.x; add_bits b p.Geom.y

let add_signal b = function
  | Mapped.Of_pi i -> Buffer.add_char b 'p'; add_int b i
  | Mapped.Of_inst i -> Buffer.add_char b 'i'; add_int b i

let add_mapped b (m : Mapped.t) =
  Array.iter
    (fun (inst : Mapped.instance) ->
      Buffer.add_string b inst.Mapped.cell.Cals_cell.Cell.name;
      Array.iter (add_signal b) inst.Mapped.fanins;
      add_point b inst.Mapped.seed;
      Buffer.add_char b ';')
    m.Mapped.instances;
  Array.iter
    (fun (name, s) -> Buffer.add_string b name; add_signal b s)
    m.Mapped.outputs

(* Each live vertex's chosen solution, the run's counts and the netlist. *)
let add_cover b subject (r : Mapper.result) =
  for v = 0 to Subject.num_nodes subject - 1 do
    match Cover.solution r.Mapper.cover v with
    | None -> Buffer.add_char b '-'
    | Some s ->
      Buffer.add_string b s.Cover.cell.Cals_cell.Cell.name;
      Array.iter (add_int b) s.Cover.leaves;
      Buffer.add_char b '/';
      List.iter (add_int b) s.Cover.covered;
      List.iter (add_bits b)
        [ s.Cover.area_cost; s.Cover.wire_cost; s.Cover.arrival_ns; s.Cover.cost ];
      add_point b s.Cover.com;
      Buffer.add_char b ';'
  done;
  let st = r.Mapper.stats in
  List.iter (add_int b)
    [ st.Mapper.matches_evaluated; st.Mapper.duplicated_gates; st.Mapper.taps ];
  add_mapped b r.Mapper.mapped

let cover_digest s options =
  let b = Buffer.create 65536 in
  List.iter
    (fun (k, r) -> add_bits b k; add_cover b s.subject r)
    (maps s options);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The seeded placement of every netlist of [maps] on three floorplans:
   a loose one, a full one, and one 2 % short of the cell area, where
   some netlists overflow the rows. *)
let placement_digest s options =
  let b = Buffer.create 65536 in
  let add_placement (pl : Placement.mapped_placement) =
    Array.iter (add_point b) pl.Placement.cell_pos;
    Array.iter (add_point b) pl.Placement.pi_pos;
    Array.iter (add_point b) pl.Placement.po_pos;
    add_bits b pl.Placement.hpwl;
    Array.iter (add_int b) pl.Placement.row_fill;
    Buffer.add_char b ';'
  in
  List.iter
    (fun (k, r) ->
      add_bits b k;
      let mapped = r.Mapper.mapped in
      let area = Mapped.total_area mapped in
      List.iter
        (fun (core_area, utilization) ->
          let floorplan =
            Floorplan.for_area ~core_area ~utilization ~aspect:1.0 ~geometry
          in
          match Placement.place_mapped_seeded mapped ~floorplan with
          | pl -> add_placement pl
          | exception Cals_place.Legalize.Overflow _ ->
            Buffer.add_string b "overflow;")
        [ (area, 0.55); (area, 1.0); (area *. 0.98, 1.0) ])
    (maps s options);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A failing pin prints the digest it got, which is the value to record
   when a change is meant to move it. *)
let check what pins digest =
  List.iter
    (fun s ->
      List.iter
        (fun (v, options) ->
          match List.assoc_opt (s.name, v) pins with
          | None -> Alcotest.failf "%s: no pin for %s / %s" what s.name v
          | Some want ->
            Alcotest.(check string)
              (Printf.sprintf "%s %s / %s" what s.name v)
              want (digest s options))
        variants)
    (Lazy.force subjects)
