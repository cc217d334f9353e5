module Rgrid = Cals_route.Rgrid
module Topology = Cals_route.Topology
module Router = Cals_route.Router
module Congestion = Cals_route.Congestion
module Floorplan = Cals_place.Floorplan
module Geom = Cals_util.Geom
module Rng = Cals_util.Rng
module Grid2d = Cals_util.Grid2d

let lib = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry lib
let wire = Cals_cell.Library.wire lib
let fp = Floorplan.of_rows ~num_rows:20 ~sites_per_row:200 ~geometry

(* {!Router.route} of the request built from per-net pin lists. *)
let route_pins ?config ?cancel ?session ~floorplan ~wire nets =
  Router.route ?cancel ?session
    (Router.Request.of_pins ?config ~floorplan ~wire nets)

(* The grid's gcell under a point, through the router's one clamp. *)
let gcell_of_point (g : Rgrid.t) p =
  Rgrid.gcell_at ~cols:g.Rgrid.cols ~rows:g.Rgrid.rows ~gcell_um:g.Rgrid.gcell_um p

(* ------------------------- Rgrid ------------------------- *)

let test_rgrid_dimensions () =
  let g = Rgrid.create ~floorplan:fp ~wire ~layers:3 () in
  Alcotest.(check bool) "cols" true (g.Rgrid.cols >= 2);
  Alcotest.(check bool) "rows" true (g.Rgrid.rows >= 2);
  Alcotest.(check (float 1e-6)) "gcell edge"
    (2.0 *. geometry.Cals_cell.Library.row_height)
    g.Rgrid.gcell_um

let test_rgrid_usage_overflow () =
  let g = Rgrid.create ~floorplan:fp ~wire ~layers:3 () in
  let e = Rgrid.H (0, 0) in
  let cap = Rgrid.capacity g e in
  Alcotest.(check bool) "capacity positive" true (cap > 0.0);
  Alcotest.(check (float 1e-9)) "no overflow" 0.0 (Rgrid.overflow g e);
  (* H (0, 0) is the first horizontal edge. *)
  g.Rgrid.husage.(0) <- cap +. 2.0;
  Alcotest.(check (float 1e-9)) "overflow 2" 2.0 (Rgrid.overflow g e);
  Alcotest.(check (float 1e-9)) "total overflow" 2.0 (Rgrid.total_overflow g)

let test_rgrid_density_reduces_capacity () =
  let g0 = Rgrid.create ~floorplan:fp ~wire ~layers:3 () in
  let dense = Grid2d.create ~cols:g0.Rgrid.cols ~rows:g0.Rgrid.rows 0.9 in
  let g1 = Rgrid.create ~floorplan:fp ~wire ~layers:3 ~density:dense () in
  let e = Rgrid.H (1, 1) in
  Alcotest.(check bool) "dense capacity smaller" true
    (Rgrid.capacity g1 e < Rgrid.capacity g0 e)

let test_rgrid_more_layers_more_capacity () =
  let g3 = Rgrid.create ~floorplan:fp ~wire ~layers:3 () in
  let g5 = Rgrid.create ~floorplan:fp ~wire ~layers:5 () in
  let e = Rgrid.H (0, 0) and v = Rgrid.V (0, 0) in
  Alcotest.(check bool) "h capacity grows" true
    (Rgrid.capacity g5 e > Rgrid.capacity g3 e);
  Alcotest.(check bool) "v capacity grows" true
    (Rgrid.capacity g5 v > Rgrid.capacity g3 v)

let test_rgrid_point_mapping () =
  let g = Rgrid.create ~floorplan:fp ~wire ~layers:3 () in
  Alcotest.(check (pair int int)) "origin" (0, 0)
    (gcell_of_point g (Geom.point 0.1 0.1));
  let c, r = gcell_of_point g (Geom.point 1e9 1e9) in
  Alcotest.(check (pair int int)) "clamped" (g.Rgrid.cols - 1, g.Rgrid.rows - 1) (c, r);
  let center =
    Geom.point (1.5 *. g.Rgrid.gcell_um) (2.5 *. g.Rgrid.gcell_um)
  in
  Alcotest.(check (pair int int)) "roundtrip" (1, 2) (gcell_of_point g center)

(* ------------------------- Topology ------------------------- *)

(* The flat topologies over a sorted distinct (c, r) list, back as
   (c, r) pairs: gcell ids here take 100 rows. *)
let topo_rows = 100
let of_id g = (g / topo_rows, g mod topo_rows)

let topo_segments iter distinct =
  let cells = Array.of_list (List.map (fun (c, r) -> (c * topo_rows) + r) distinct) in
  let acc = ref [] in
  iter cells (Array.length cells) (fun s d -> acc := (of_id s, of_id d) :: !acc);
  List.rev !acc

let mst_segments =
  topo_segments (fun cells n f ->
      Topology.iter_mst (Topology.scratch n) ~rows:topo_rows cells 0 n f)

let test_mst_tree_properties () =
  let pins = [ (0, 0); (5, 0); (0, 5); (9, 9); (5, 0) ] in
  let segs = mst_segments (List.sort_uniq compare pins) in
  (* 4 distinct pins -> 3 edges. *)
  Alcotest.(check int) "spanning edges" 3 (List.length segs);
  (* Connectivity via union-find over pin indices. *)
  let distinct = List.sort_uniq compare pins in
  let idx p = Option.get (List.find_index (( = ) p) distinct) in
  let uf = Cals_util.Union_find.create (List.length distinct) in
  List.iter
    (fun (src, dst) -> ignore (Cals_util.Union_find.union uf (idx src) (idx dst)))
    segs;
  Alcotest.(check int) "connected" 1 (Cals_util.Union_find.count uf)

let test_mst_short () =
  Alcotest.(check int) "empty" 0 (List.length (mst_segments []));
  Alcotest.(check int) "single" 0 (List.length (mst_segments [ (1, 1) ]))

(* ------------------------- Router ------------------------- *)

let test_route_empty_and_trivial () =
  let r = route_pins ~floorplan:fp ~wire [| []; [ Geom.point 5.0 5.0 ] |] in
  Alcotest.(check int) "no segments" 0 r.Router.num_segments;
  Alcotest.(check (float 1e-9)) "no wire" 0.0 r.Router.wirelength_um;
  Alcotest.(check int) "no violations" 0 r.Router.violations

let test_route_two_pins () =
  let a = Geom.point 5.0 5.0 in
  let b = Geom.point 100.0 80.0 in
  let r = route_pins ~floorplan:fp ~wire [| [ a; b ] |] in
  Alcotest.(check int) "one segment" 1 r.Router.num_segments;
  Alcotest.(check bool) "wirelength covers manhattan" true
    (r.Router.wirelength_um >= Geom.manhattan a b -. (2.0 *. r.Router.grid.Rgrid.gcell_um));
  Alcotest.(check int) "routes cleanly" 0 r.Router.violations

let test_route_usage_conservation () =
  (* Total usage = total routed gcell crossings. *)
  let rng = Rng.create 33 in
  let nets =
    Array.init 30 (fun _ ->
        List.init (Rng.range rng 2 5) (fun _ ->
            Geom.point
              (Rng.float rng fp.Floorplan.die_width)
              (Rng.float rng fp.Floorplan.die_height)))
  in
  let r = route_pins ~floorplan:fp ~wire nets in
  let total_usage = ref 0.0 in
  Rgrid.iter_edges r.Router.grid (fun e ->
      total_usage := !total_usage +. Rgrid.usage r.Router.grid e);
  let crossings = r.Router.wirelength_um /. r.Router.grid.Rgrid.gcell_um in
  Alcotest.(check (float 0.5)) "usage = crossings" crossings !total_usage

let test_route_net_lengths_sum () =
  let rng = Rng.create 34 in
  let nets =
    Array.init 10 (fun _ ->
        List.init 3 (fun _ ->
            Geom.point
              (Rng.float rng fp.Floorplan.die_width)
              (Rng.float rng fp.Floorplan.die_height)))
  in
  let r = route_pins ~floorplan:fp ~wire nets in
  let sum = Array.fold_left ( +. ) 0.0 r.Router.net_length_um in
  Alcotest.(check (float 1e-6)) "lengths sum to total" r.Router.wirelength_um sum

let test_route_overload_detected () =
  (* Force many long nets through a 2-gcell-tall corridor. *)
  let tiny = Floorplan.of_rows ~num_rows:4 ~sites_per_row:400 ~geometry in
  let nets =
    Array.init 400 (fun i ->
        let y = float_of_int (i mod 4) +. 2.0 in
        [ Geom.point 1.0 y; Geom.point (tiny.Floorplan.die_width -. 1.0) y ])
  in
  let r = route_pins ~floorplan:tiny ~wire nets in
  Alcotest.(check bool) "overflow detected" true (r.Router.violations > 0)

let test_route_negotiation_helps () =
  let rng = Rng.create 35 in
  let nets =
    Array.init 150 (fun _ ->
        List.init 2 (fun _ ->
            Geom.point
              (Rng.float rng fp.Floorplan.die_width)
              (Rng.float rng fp.Floorplan.die_height)))
  in
  let no_nego = { Router.default_config with reroute_iterations = 0 } in
  let nego = { Router.default_config with reroute_iterations = 16 } in
  let r0 = route_pins ~config:no_nego ~floorplan:fp ~wire nets in
  let r1 = route_pins ~config:nego ~floorplan:fp ~wire nets in
  Alcotest.(check bool)
    (Printf.sprintf "negotiation %d <= initial %d" r1.Router.violations
       r0.Router.violations)
    true
    (r1.Router.violations <= r0.Router.violations)

(* ------------------------- Session & parallelism ------------------------- *)

(* Bit-exact result comparison: the contract of both the session replay
   cache and the wave-parallel negotiation is "identical result", so this
   compares every field, including the grid's usage arrays. *)
let check_same_result label (a : Router.result) (b : Router.result) =
  Alcotest.(check int) (label ^ ": violations") a.Router.violations
    b.Router.violations;
  Alcotest.(check (float 0.0)) (label ^ ": total overflow")
    a.Router.total_overflow b.Router.total_overflow;
  Alcotest.(check (float 0.0)) (label ^ ": wirelength") a.Router.wirelength_um
    b.Router.wirelength_um;
  Alcotest.(check (float 0.0)) (label ^ ": max utilization")
    a.Router.max_utilization b.Router.max_utilization;
  Alcotest.(check int) (label ^ ": segments") a.Router.num_segments
    b.Router.num_segments;
  Alcotest.(check (array (float 0.0))) (label ^ ": net lengths")
    a.Router.net_length_um b.Router.net_length_um;
  Alcotest.(check bool) (label ^ ": net gcells") true
    (a.Router.net_gcells = b.Router.net_gcells);
  Alcotest.(check int) (label ^ ": route count")
    (Array.length a.Router.routes)
    (Array.length b.Router.routes);
  Array.iteri
    (fun i (ra : Router.route) ->
      let rb = b.Router.routes.(i) in
      if ra.Router.net <> rb.Router.net || ra.Router.gends <> rb.Router.gends
      then Alcotest.failf "%s: route %d metadata differs" label i;
      if ra.Router.edges <> rb.Router.edges then
        Alcotest.failf "%s: route %d path differs" label i)
    a.Router.routes;
  Alcotest.(check (array (float 0.0))) (label ^ ": husage")
    a.Router.grid.Rgrid.husage b.Router.grid.Rgrid.husage;
  Alcotest.(check (array (float 0.0))) (label ^ ": vusage")
    a.Router.grid.Rgrid.vusage b.Router.grid.Rgrid.vusage

(* A congested workload (narrow corridor, long parallel nets) so the
   negotiation loop actually runs waves of rip-up and reroute. *)
let congested_floorplan = Floorplan.of_rows ~num_rows:8 ~sites_per_row:400 ~geometry

let congested_nets seed n =
  let rng = Rng.create seed in
  Array.init n (fun i ->
      if i mod 3 = 0 then begin
        let y = float_of_int (i mod 8) +. 2.0 in
        [
          Geom.point 1.0 y;
          Geom.point (congested_floorplan.Floorplan.die_width -. 1.0) y;
        ]
      end
      else
        List.init 2 (fun _ ->
            Geom.point
              (Rng.float rng congested_floorplan.Floorplan.die_width)
              (Rng.float rng congested_floorplan.Floorplan.die_height)))

let test_route_session_replay () =
  let nets = congested_nets 41 150 in
  let session = Router.Session.create () in
  let route () =
    route_pins ~session ~floorplan:congested_floorplan ~wire nets
  in
  let r1 = route () in
  let r2 = route () in
  check_same_result "replay==cold" r1 r2;
  let cold = route_pins ~floorplan:congested_floorplan ~wire nets in
  check_same_result "session==no-session" cold r1;
  let s = Router.Session.stats session in
  Alcotest.(check int) "two calls" 2 s.Router.Session.route_calls;
  Alcotest.(check int) "one replay" 1 s.Router.Session.replays

(* A cancellation fired mid-negotiation must unwind without corrupting
   the session: the next call on the same session (which reuses the
   routing state the cancelled call abandoned) must equal a fresh cold
   route. *)
let test_route_cancel_mid_negotiation () =
  let nets = congested_nets 42 240 in
  let session = Router.Session.create () in
  let checks = ref 0 in
  let cancel =
    Cals_util.Cancel.create
      ~expires:(fun () ->
        incr checks;
        !checks > 25)
      ()
  in
  (match
     route_pins ~session ~cancel ~floorplan:congested_floorplan ~wire
       nets
   with
  | _ -> Alcotest.fail "expected the countdown token to cancel the route"
  | exception Cals_util.Cancel.Cancelled _ -> ());
  Alcotest.(check bool) "cancelled mid-run" true (!checks > 25);
  let cold = route_pins ~floorplan:congested_floorplan ~wire nets in
  let warm =
    route_pins ~session ~floorplan:congested_floorplan ~wire nets
  in
  check_same_result "post-cancel session==cold" cold warm

(* ------------------------- Wave colouring ------------------------- *)

type wave_case = {
  cols : int;
  rows : int;
  boxes : int array;  (* c0 r0 c1 r1 per segment *)
  pend : int array;
}

let print_wave_case c =
  Printf.sprintf "%dx%d grid, %d boxes [%s], pending [%s]" c.cols c.rows
    (Array.length c.boxes / 4)
    (String.concat " " (Array.to_list (Array.map string_of_int c.boxes)))
    (String.concat " " (Array.to_list (Array.map string_of_int c.pend)))

(* Grids include the 2xN and Nx2 extremes. A "crowd" case pends so many
   whole-grid boxes that it usually needs more than 124 waves, crossing
   two plane boundaries; the others mix random rectangles with a few
   whole-grid boxes and pend a random subset, empty included. Pending
   order is random. *)
let gen_wave_case =
  let open QCheck.Gen in
  let* cols, rows =
    frequency
      [
        (1, map (fun n -> (2, n)) (int_range 2 12));
        (1, map (fun n -> (n, 2)) (int_range 2 12));
        (3, pair (int_range 2 14) (int_range 2 14));
      ]
  in
  let* crowd = frequency [ (1, return true); (3, return false) ] in
  let* nsegs = if crowd then int_range 160 260 else int_range 0 80 in
  let whole = if crowd then 0.8 else 0.1 in
  let span n =
    let* a = int_bound (n - 1) and* b = int_bound (n - 1) in
    return (min a b, max a b)
  in
  let box =
    let* f = float_bound_inclusive 1.0 in
    if f < whole then return [ 0; 0; cols - 1; rows - 1 ]
    else
      let* c0, c1 = span cols and* r0, r1 = span rows in
      return [ c0; r0; c1; r1 ]
  in
  let* boxes = list_repeat nsegs box in
  let ids = List.init nsegs Fun.id in
  let* ids = shuffle_l ids in
  let* keep = if crowd || nsegs = 0 then return nsegs else int_bound nsegs in
  return
    {
      cols;
      rows;
      boxes = Array.of_list (List.concat boxes);
      pend = Array.of_list (List.filteri (fun i _ -> i < keep) ids);
    }

(* One scratch for every case, as a routing state reuses it across
   iterations: a plane left dirty by a previous build would show. *)
let shared_waves = Cals_route.Wave.create ()

let colour_waves c =
  let w = shared_waves in
  Cals_route.Wave.build w ~cols:c.cols ~rows:c.rows ~boxes:c.boxes ~pend:c.pend
    (Array.length c.pend);
  let order = Cals_route.Wave.order w in
  List.init (Cals_route.Wave.count w) (fun i ->
      let s = Cals_route.Wave.start w i in
      Array.sub order s (Cals_route.Wave.start w (i + 1) - s))

let wave_oracle_property =
  QCheck.Test.make ~name:"wave colouring == greedy rescan" ~count:400
    (QCheck.make ~print:print_wave_case gen_wave_case)
    (fun c ->
      let want = Cals_reference.Reference_wave.waves ~boxes:c.boxes c.pend in
      let got = colour_waves c in
      let rec first_diff i = function
        | a :: xs, b :: ys when a = b -> first_diff (i + 1) (xs, ys)
        | _ -> i
      in
      if got <> want then
        QCheck.Test.fail_reportf "%d waves, want %d; first differing wave %d"
          (List.length got) (List.length want) (first_diff 0 (got, want))
      else true)

(* The plane boundaries, pinned deterministically: 130 whole-grid boxes
   need one wave each, and the small boxes interleaved with them must
   still find the lowest free wave in plane 0. *)
let test_wave_crosses_planes () =
  let cols = 6 and rows = 5 in
  let n = 260 in
  let boxes =
    Array.concat
      (List.init n (fun i ->
           if i mod 2 = 0 then [| 0; 0; cols - 1; rows - 1 |]
           else [| i mod cols; i mod rows; i mod cols; i mod rows |]))
  in
  let c = { cols; rows; boxes; pend = Array.init n Fun.id } in
  let got = colour_waves c in
  Alcotest.(check bool) "more than 124 waves" true (List.length got > 124);
  Alcotest.(check bool) "matches the greedy rescan" true
    (got = Cals_reference.Reference_wave.waves ~boxes c.pend);
  let empty = colour_waves { c with pend = [||] } in
  Alcotest.(check int) "empty pending list, no waves" 0 (List.length empty)

(* ------------------------- Pinned routes ------------------------- *)

(* Digest of everything a route decides: every segment's net, ends and
   path, the bits of both usage arrays, the violation count and the bits
   of the total overflow. The pins below were recorded before the one-pass
   wave colouring replaced the rescanning wave builder; any change to
   negotiation order, wave membership or commit order moves them. *)
let route_digest (r : Router.result) =
  let b = Buffer.create 65536 in
  let int i = Buffer.add_string b (string_of_int i ^ ",") in
  let bits f = Buffer.add_string b (Int64.to_string (Int64.bits_of_float f) ^ ",") in
  Array.iter
    (fun (ro : Router.route) ->
      let (c1, r1), (c2, r2) = ro.Router.gends in
      List.iter int [ ro.Router.net; c1; r1; c2; r2 ];
      List.iter
        (function
          | Rgrid.H (c, r) -> List.iter int [ 0; c; r ]
          | Rgrid.V (c, r) -> List.iter int [ 1; c; r ])
        ro.Router.edges;
      Buffer.add_char b ';')
    r.Router.routes;
  Array.iter bits r.Router.grid.Rgrid.husage;
  Array.iter bits r.Router.grid.Rgrid.vusage;
  int r.Router.violations;
  bits r.Router.total_overflow;
  Digest.to_hex (Digest.string (Buffer.contents b))

let congested_pins =
  [
    (40, "e65f12ddbd22d3a55c592e0c2f6067d2");
    (41, "e3c65e4397b24d56f58b1d52d2b1ceee");
    (42, "e68d8a5aa795cd6dee906654eacaf0e3");
  ]

let test_route_pinned_congested () =
  List.iter
    (fun (seed, want) ->
      let r =
        route_pins ~floorplan:congested_floorplan ~wire
          (congested_nets seed 240)
      in
      Alcotest.(check string)
        (Printf.sprintf "congested_nets %d" seed)
        want (route_digest r))
    congested_pins

(* A PDC-like circuit at scale 0.05 and 85 % utilization mapped at K = 0:
   the shape of the benchmark's never-settling searches. *)
let test_route_pinned_pdc () =
  let net = Cals_workload.Presets.pdc_like ~scale:0.05 ~seed:1 () in
  Cals_logic.Optimize.script_light net;
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Cals_netlist.Subject.num_gates subject) *. 5.0)
      ~utilization:0.85 ~aspect:1.0 ~geometry
  in
  let positions =
    Cals_place.Placement.place_subject subject ~floorplan ~rng:(Rng.create 7)
  in
  let mapped =
    (Cals_reference.Reference_mapper.map subject ~library:lib ~positions
       (Cals_core.Mapper.congestion_aware ~k:0.0))
      .Cals_core.Mapper.mapped
  in
  let placement = Cals_place.Placement.place_mapped_seeded mapped ~floorplan in
  let r = Router.route_mapped mapped ~floorplan ~wire ~placement in
  Alcotest.(check bool) "pdc fixture is congested" true (r.Router.violations > 0);
  Alcotest.(check string) "pdc 0.05 @ 85%" "ada23aba3f3a7b5817dcdd99e7e8622a" (route_digest r)

(* ------------------------- One route request ------------------------- *)

module Request = Router.Request
module Placement = Cals_place.Placement
module Estimate = Cals_estimate.Estimate

(* A small mapped netlist and a legal placement of it; the property below
   moves every pin at random. *)
let agreement_fixture =
  lazy
    (let net =
       Cals_workload.Gen.pla ~rng:(Rng.create 17) ~inputs:5 ~outputs:3
         ~products:10 ()
     in
     Cals_logic.Network.sweep net;
     let subject = Cals_logic.Decompose.subject_of_network net in
     let floorplan = Floorplan.of_rows ~num_rows:10 ~sites_per_row:60 ~geometry in
     let positions = Placement.place_subject subject ~floorplan ~rng:(Rng.create 3) in
     let mapped =
       (Cals_reference.Reference_mapper.map subject ~library:lib ~positions
          (Cals_core.Mapper.congestion_aware ~k:0.0))
         .Cals_core.Mapper.mapped
     in
     (mapped, Placement.place_mapped_seeded mapped ~floorplan))

(* The router, the density map and the forecast share one request, so on
   any floorplan they agree on every pin gcell and on the grid
   dimensions — pins off the die and at negative coordinates included.
   Up to 24 rows make grids of up to 12 gcell rows. *)
let prop_request_agreement =
  QCheck.Test.make ~count:60
    ~name:"request, density, grid and forecast agree on gcells"
    QCheck.(triple (int_range 1 24) (int_range 1 80) (int_range 0 10_000))
    (fun (num_rows, sites_per_row, seed) ->
      let floorplan = Floorplan.of_rows ~num_rows ~sites_per_row ~geometry in
      let rng = Rng.create seed in
      (* From half a die below the origin to half a die past the far edge. *)
      let point _ =
        Geom.point
          ((Rng.float rng 2.0 -. 0.5) *. floorplan.Floorplan.die_width)
          ((Rng.float rng 2.0 -. 0.5) *. floorplan.Floorplan.die_height)
      in
      let dims_of g = (g.Rgrid.cols, g.Rgrid.rows) in
      let check what (req : Request.t) =
        let r = Router.route req in
        let g = r.Router.grid in
        if (req.Request.cols, req.Request.rows) <> dims_of g then
          QCheck.Test.fail_reportf "%s: request dims differ from the grid" what;
        for net = 0 to Request.num_nets req - 1 do
          for i = req.Request.pin_start.(net) to req.Request.pin_start.(net + 1) - 1 do
            let p = req.Request.pins.(i) and cell = req.Request.pin_gcells.(i) in
            if gcell_of_point g p <> (cell / req.Request.rows, cell mod req.Request.rows)
            then
              QCheck.Test.fail_reportf
                "%s: net %d pin (%g, %g) disagrees with the grid" what net
                p.Geom.x p.Geom.y
          done
        done;
        if
          r.Router.gcell_start <> req.Request.gcell_start
          || r.Router.net_gcells <> req.Request.net_gcells
        then QCheck.Test.fail_reportf "%s: result net gcells differ" what;
        (match req.Request.density with
        | Some d when (Grid2d.cols d, Grid2d.rows d) <> dims_of g ->
          QCheck.Test.fail_reportf "%s: density dims differ from the grid" what
        | _ -> ());
        let m = (Estimate.forecast req).Estimate.maps in
        if (m.Estimate.cols, m.Estimate.rows) <> dims_of g then
          QCheck.Test.fail_reportf "%s: forecast dims differ from the grid" what
      in
      let pins = Array.init 24 (fun _ -> List.init (Rng.int rng 5) point) in
      check "pins" (Request.of_pins ~floorplan ~wire pins);
      let mapped, placed = Lazy.force agreement_fixture in
      let placement =
        {
          placed with
          Placement.cell_pos = Array.map point placed.Placement.cell_pos;
          pi_pos = Array.map point placed.Placement.pi_pos;
          po_pos = Array.map point placed.Placement.po_pos;
        }
      in
      let req = Request.of_mapped mapped ~floorplan ~wire ~placement in
      if req.Request.density = None then
        QCheck.Test.fail_report "of_mapped built no density map";
      check "mapped" req;
      true)

(* A random mapped netlist: up to 25 cells of any library cell, fanins
   from any earlier signal (PI 0 favoured, for a high-fanout net), up to
   six outputs that may share a signal. Sinkless nets, cells reading one
   net on two pins and PIs wired straight to outputs all occur. *)
let random_mapped rng =
  let module Mapped = Cals_netlist.Mapped in
  let cells = Array.of_list (Cals_cell.Library.cells lib) in
  let n_pi = 1 + Rng.int rng 6 in
  let signal before =
    if Rng.int rng 4 = 0 then Mapped.Of_pi 0
    else
      let k = Rng.int rng (n_pi + before) in
      if k < n_pi then Mapped.Of_pi k else Mapped.Of_inst (k - n_pi)
  in
  let instances =
    Array.init (Rng.int rng 26) (fun i ->
        let cell = cells.(Rng.int rng (Array.length cells)) in
        {
          Mapped.cell;
          fanins =
            Array.init (Cals_cell.Cell.num_inputs cell) (fun _ -> signal i);
          seed = Geom.point 0.0 0.0;
        })
  in
  let n_inst = Array.length instances in
  Mapped.make
    ~pi_names:(Array.init n_pi (Printf.sprintf "i%d"))
    ~instances
    ~outputs:(Array.init (Rng.int rng 7) (fun o -> (Printf.sprintf "o%d" o, signal n_inst)))

(* The flat request against the list-based one it replaced
   (test/reference/reference_request.ml): the net table, every pin's
   gcell, each net's sorted distinct gcells, the density bits and the
   segments, for [of_mapped] and [of_pins]. Up to 24 rows make grids of
   up to 12 gcell rows. *)
let prop_request_oracle =
  QCheck.Test.make ~count:400 ~name:"flat request == list oracle"
    QCheck.(triple (int_range 1 24) (int_range 1 80) (int_range 0 10_000))
    (fun (num_rows, sites_per_row, seed) ->
      let module Mapped = Cals_netlist.Mapped in
      let module Ref = Cals_reference.Reference_request in
      let floorplan = Floorplan.of_rows ~num_rows ~sites_per_row ~geometry in
      let rng = Rng.create seed in
      let point _ =
        Geom.point
          ((Rng.float rng 2.0 -. 0.5) *. floorplan.Floorplan.die_width)
          ((Rng.float rng 2.0 -. 0.5) *. floorplan.Floorplan.die_height)
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let cell (req : Request.t) g = (g / req.Request.rows, g mod req.Request.rows) in
      let slice a lo hi = Array.to_list (Array.sub a lo (hi - lo)) in
      let check what (req : Request.t) (oracle : Ref.t) =
        let n = Request.num_nets req in
        if (req.Request.cols, req.Request.rows) <> (oracle.Ref.cols, oracle.Ref.rows)
        then fail "%s: grid dims differ" what;
        if n <> Array.length oracle.Ref.pins then fail "%s: net count differs" what;
        for net = 0 to n - 1 do
          let lo = req.Request.pin_start.(net) and hi = req.Request.pin_start.(net + 1) in
          if slice req.Request.pins lo hi <> oracle.Ref.pins.(net) then
            fail "%s: net %d pins differ" what net;
          if
            List.map (cell req) (slice req.Request.pin_gcells lo hi)
            <> oracle.Ref.pin_gcells.(net)
          then fail "%s: net %d pin gcells differ" what net;
          if
            List.map (cell req)
              (slice req.Request.net_gcells req.Request.gcell_start.(net)
                 req.Request.gcell_start.(net + 1))
            <> oracle.Ref.net_gcells.(net)
          then fail "%s: net %d distinct gcells differ" what net
        done;
        let bits = function
          | None -> []
          | Some g ->
            Grid2d.fold (fun c r v acc -> (c, r, Int64.bits_of_float v) :: acc) g []
        in
        if bits req.Request.density <> bits oracle.Ref.density then
          fail "%s: density bits differ" what;
        let segments = ref [] in
        Router.iter_segments req (fun net src dst ->
            segments := (net, cell req src, cell req dst) :: !segments);
        if List.rev !segments <> Ref.segments oracle then
          fail "%s: segments differ" what
      in
      let mapped = random_mapped rng in
      let table = Mapped.net_table mapped in
      let n_cells = Array.length mapped.Mapped.instances in
      let node = function
        | Mapped.Of_pi i -> n_cells + i
        | Mapped.Of_inst i -> i
      in
      Array.iteri
        (fun net { Ref.driver; sinks } ->
          let want =
            if sinks = [] then []
            else
              node driver
              :: List.map
                   (function
                     | Ref.Cell_pin (i, _) -> i
                     | Ref.Po o -> n_cells + Array.length mapped.Mapped.pi_names + o)
                   sinks
          in
          if slice table.Mapped.pins table.Mapped.first.(net) table.Mapped.first.(net + 1) <> want
          then fail "net table: net %d differs" net)
        (Ref.nets mapped);
      let placement =
        {
          Placement.cell_pos = Array.init n_cells point;
          pi_pos = Array.init (Array.length mapped.Mapped.pi_names) point;
          po_pos = Array.init (Array.length mapped.Mapped.outputs) point;
          hpwl = 0.0;
          row_fill = [||];
          nets = table;
        }
      in
      check "mapped"
        (Request.of_mapped mapped ~floorplan ~wire ~placement)
        (Ref.of_mapped mapped ~floorplan ~placement);
      (* Few distinct points, so nets repeat gcells and pins. *)
      let points = Array.init 6 point in
      let nets =
        Array.init (Rng.int rng 30) (fun _ ->
            List.init (Rng.int rng 25) (fun _ -> points.(Rng.int rng 6)))
      in
      check "pins"
        (Request.of_pins ~floorplan ~wire nets)
        (Ref.of_pins ~floorplan nets);
      true)

(* ------------------------- Congestion ------------------------- *)

let test_congestion_report () =
  let rng = Rng.create 37 in
  let nets =
    Array.init 50 (fun _ ->
        List.init 3 (fun _ ->
            Geom.point
              (Rng.float rng fp.Floorplan.die_width)
              (Rng.float rng fp.Floorplan.die_height)))
  in
  let r = route_pins ~floorplan:fp ~wire nets in
  let report = Congestion.of_result r in
  Alcotest.(check int) "violations match" r.Router.violations report.Congestion.violations;
  Alcotest.(check bool) "fraction in [0,1]" true
    (report.Congestion.congested_gcell_fraction >= 0.0
    && report.Congestion.congested_gcell_fraction <= 1.0);
  Alcotest.(check bool) "acceptable when clean" true
    (report.Congestion.violations > 0 || Congestion.acceptable report);
  let map = Congestion.ascii_map r in
  Alcotest.(check bool) "map non-empty" true (String.length map > 0);
  Alcotest.(check bool) "summary mentions violations" true
    (String.length (Congestion.summary report) > 0)

let () =
  Alcotest.run "route"
    [
      ( "rgrid",
        [
          Alcotest.test_case "dimensions" `Quick test_rgrid_dimensions;
          Alcotest.test_case "usage/overflow" `Quick test_rgrid_usage_overflow;
          Alcotest.test_case "density blocks M1" `Quick
            test_rgrid_density_reduces_capacity;
          Alcotest.test_case "layer budget" `Quick test_rgrid_more_layers_more_capacity;
          Alcotest.test_case "point mapping" `Quick test_rgrid_point_mapping;
        ] );
      ( "topology",
        [
          Alcotest.test_case "mst tree" `Quick test_mst_tree_properties;
          Alcotest.test_case "degenerate" `Quick test_mst_short;
        ] );
      ( "router",
        [
          Alcotest.test_case "empty/trivial" `Quick test_route_empty_and_trivial;
          Alcotest.test_case "two pins" `Quick test_route_two_pins;
          Alcotest.test_case "usage conservation" `Quick test_route_usage_conservation;
          Alcotest.test_case "net length sum" `Quick test_route_net_lengths_sum;
          Alcotest.test_case "overload detected" `Quick test_route_overload_detected;
          Alcotest.test_case "negotiation helps" `Quick test_route_negotiation_helps;
        ] );
      ( "session",
        [
          Alcotest.test_case "session replay" `Quick test_route_session_replay;
          Alcotest.test_case "cancel mid-negotiation" `Quick
            test_route_cancel_mid_negotiation;
        ] );
      ( "waves",
        [
          QCheck_alcotest.to_alcotest wave_oracle_property;
          Alcotest.test_case "crosses plane boundaries" `Quick
            test_wave_crosses_planes;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "congested_nets 40-42" `Quick
            test_route_pinned_congested;
          Alcotest.test_case "pdc 0.05 @ 85%" `Quick test_route_pinned_pdc;
        ] );
      ( "request",
        [
          QCheck_alcotest.to_alcotest prop_request_agreement;
          QCheck_alcotest.to_alcotest prop_request_oracle;
        ] );
      ("congestion", [ Alcotest.test_case "report" `Quick test_congestion_report ]);
    ]
