module Geom = Cals_util.Geom
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Cell = Cals_cell.Cell
module Library = Cals_cell.Library
module Metrics = Cals_telemetry.Metrics

let m_matches_per_vertex =
  Metrics.histogram ~help:"Pattern matches tried per covered vertex"
    ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]
    "cover_matches_per_vertex"

type options = {
  k : float;
  t : float;
  distance : Geom.metric;
  incremental_update : bool;
  include_wire2 : bool;
  transitive_wire : bool;
}

type solution = {
  cell : Cell.t;
  leaves : int array;
  covered : int list;
  area_cost : float;
  wire_cost : float;
  arrival_ns : float;
  cost : float;
  com : Geom.point;
}

type t = {
  table : Matches.table;
  partition : Partition.t;
  chosen : int array;
  area : float array;
  wire : float array;
  arrival : float array;
  cost : float array;
  com_x : float array;
  com_y : float array;
  evaluated : int;
}

(* Wire cost of the Pedram-Bhat-style transitive variant: total original
   edge length of the full fanin cone below a node. *)
let tfi_wire subject ~positions ~metric =
  let n = Subject.num_nodes subject in
  let memo = Array.make n nan in
  let rec go v =
    if memo.(v) = memo.(v) (* not NaN *) then memo.(v)
    else begin
      let total =
        List.fold_left
          (fun acc c ->
            acc +. Geom.distance metric positions.(v) positions.(c) +. go c)
          0.0
          (Subject.fanins subject.Subject.gates.(v))
      in
      memo.(v) <- total;
      total
    end
  in
  for v = 0 to n - 1 do
    ignore (go v)
  done;
  memo

(* The DP prices every candidate of the table in flat loops: no record,
   point or boxed float per candidate, and the metric chosen by a branch
   rather than a closure. The float operations are those of the plain
   definitions, in the same order, so results are bit-identical to them
   (test_core "cover pinned", and the list oracle in test/reference):
   - area: [cell.area] plus each leaf's area, in leaf order;
   - center of mass: the x and y sums over the covered gates in order,
     each divided by the count;
   - WIRE1: from 0, each leaf's distance in leaf order; WIRE2 then adds
     each leaf's memoized wire cost onto it, in leaf order;
   - arrival: the maximum from 0 under a strict [>] of each leaf's
     arrival plus its Elmore wire delay, plus the cell delay
     [intrinsic +. drive *. load].
   One distance per leaf feeds both WIRE1 and the arrival. The incumbent
   is kept on [b.cost < cost || (b.cost = cost && b.area <= area)], so
   the first of equally priced candidates in enumeration order wins. *)
let run (tbl : Matches.table) ~(partition : Partition.t) ~positions options =
  let subject = tbl.Matches.subject in
  let n = Subject.num_nodes subject in
  let wire_model = Library.wire tbl.Matches.library in
  let res = wire_model.Library.res_kohm_per_um in
  let cap = wire_model.Library.cap_pf_per_um in
  (* Current companion positions, collapsed to centers of mass as
     matches are chosen. *)
  let cur_x = Array.map (fun p -> p.Geom.x) positions in
  let cur_y = Array.map (fun p -> p.Geom.y) positions in
  (* The per-node results double as the memoized fanin figures of
     Eqs. 1 and 3; PIs keep zero cost and their pad position. *)
  let com_x = Array.copy cur_x and com_y = Array.copy cur_y in
  let chosen = Array.make n (-1) in
  let area = Array.make n 0.0 in
  let wire = Array.make n 0.0 in
  let arrival = Array.make n 0.0 in
  let cost = Array.make n 0.0 in
  let transitive = options.transitive_wire in
  let wire2 = options.include_wire2 in
  let euclidean =
    match options.distance with
    | Geom.Euclidean -> true
    | Geom.Manhattan -> false
  in
  let tfi =
    if transitive then tfi_wire subject ~positions ~metric:options.distance
    else [||]
  in
  let k = options.k and tw = options.t in
  let live = partition.Partition.live and gates = subject.Subject.gates in
  let { Matches.first; stop; cell; leaf_first; leaves; cov_first; covered;
        cell_area; cell_input_cap; cell_intrinsic; cell_drive; load;
        enumerated; _ } =
    tbl
  in
  let evaluated = ref 0 in
  for v = 0 to n - 1 do
    match gates.(v) with
    | Subject.Pi _ -> ()
    | (Subject.Inv _ | Subject.Nand2 _) when live.(v) ->
      let lo = first.(v) in
      if lo < 0 then
        invalid_arg (Printf.sprintf "Cover.run: no candidates at live gate %d" v);
      evaluated := !evaluated + enumerated.(v);
      let load = load.(v) in
      let best = ref (-1) in
      let best_area = ref 0.0 and best_wire = ref 0.0 in
      let best_arrival = ref 0.0 and best_cost = ref 0.0 in
      let best_x = ref 0.0 and best_y = ref 0.0 in
      for c = lo to stop.(v) - 1 do
        let ci = cell.(c) in
        let sx = ref 0.0 and sy = ref 0.0 in
        let c0 = cov_first.(c) and c1 = cov_first.(c + 1) in
        for j = c0 to c1 - 1 do
          let u = covered.(j) in
          sx := !sx +. cur_x.(u);
          sy := !sy +. cur_y.(u)
        done;
        let m = float_of_int (c1 - c0) in
        let cx = !sx /. m and cy = !sy /. m in
        let in_cap = cell_input_cap.(ci) in
        let a = ref cell_area.(ci) in
        let wire1 = ref 0.0 in
        let latest = ref 0.0 in
        let l0 = leaf_first.(c) and l1 = leaf_first.(c + 1) in
        for j = l0 to l1 - 1 do
          let l = leaves.(j) in
          a := !a +. area.(l);
          let dx = cx -. com_x.(l) and dy = cy -. com_y.(l) in
          let d =
            if euclidean then sqrt ((dx *. dx) +. (dy *. dy))
            else abs_float dx +. abs_float dy
          in
          if not transitive then wire1 := !wire1 +. d;
          (* Elmore wire delay on each leaf-to-match edge (the model
             {!Cals_sta.Sta} uses post-route), so the DP ranks covers by
             the arrival the routed netlist will actually see. *)
          let r = d *. res in
          let cw = d *. cap in
          let t_wire = r *. ((cw /. 2.0) +. in_cap) in
          let t = arrival.(l) +. t_wire in
          if t > !latest then latest := t
        done;
        let w = ref !wire1 in
        if transitive then begin
          (* Charge every leaf at its original position plus its whole
             cone: the uncontrolled variant of Section 3.3. *)
          w := 0.0;
          for j = l0 to l1 - 1 do
            let l = leaves.(j) in
            let p = positions.(l) in
            let dx = cx -. p.Geom.x and dy = cy -. p.Geom.y in
            let d =
              if euclidean then sqrt ((dx *. dx) +. (dy *. dy))
              else abs_float dx +. abs_float dy
            in
            w := !w +. d +. tfi.(l)
          done
        end
        else if wire2 then
          for j = l0 to l1 - 1 do
            w := !w +. wire.(leaves.(j))
          done;
        let area_c = !a and wire_c = !w in
        let arrival_c =
          !latest +. (cell_intrinsic.(ci) +. (cell_drive.(ci) *. load))
        in
        let cost_c = area_c +. (k *. wire_c) +. (tw *. arrival_c) in
        if
          !best < 0
          || not
               (!best_cost < cost_c
               || (!best_cost = cost_c && !best_area <= area_c))
        then begin
          best := c;
          best_area := area_c;
          best_wire := wire_c;
          best_arrival := arrival_c;
          best_cost := cost_c;
          best_x := cx;
          best_y := cy
        end
      done;
      let b = !best in
      if b < 0 then failwith "Cover.run: no match at a live gate";
      Metrics.observe m_matches_per_vertex (float_of_int enumerated.(v));
      chosen.(v) <- b;
      area.(v) <- !best_area;
      wire.(v) <- !best_wire;
      arrival.(v) <- !best_arrival;
      cost.(v) <- !best_cost;
      let bx = !best_x and by = !best_y in
      com_x.(v) <- bx;
      com_y.(v) <- by;
      if options.incremental_update then
        for j = cov_first.(b) to cov_first.(b + 1) - 1 do
          let u = covered.(j) in
          cur_x.(u) <- bx;
          cur_y.(u) <- by
        done
    | Subject.Inv _ | Subject.Nand2 _ -> ()
  done;
  { table = tbl; partition; chosen; area; wire; arrival; cost; com_x; com_y;
    evaluated = !evaluated }

let solution t v =
  let c = t.chosen.(v) in
  if c < 0 then None
  else begin
    let tbl = t.table in
    let l0 = tbl.Matches.leaf_first.(c) and c0 = tbl.Matches.cov_first.(c) in
    Some
      {
        cell = tbl.Matches.cells.(tbl.Matches.cell.(c));
        leaves = Array.sub tbl.Matches.leaves l0 (tbl.Matches.leaf_first.(c + 1) - l0);
        covered =
          List.init
            (tbl.Matches.cov_first.(c + 1) - c0)
            (fun j -> tbl.Matches.covered.(c0 + j));
        area_cost = t.area.(v);
        wire_cost = t.wire.(v);
        arrival_ns = t.arrival.(v);
        cost = t.cost.(v);
        com = { Geom.x = t.com_x.(v); y = t.com_y.(v) };
      }
  end

let matches_evaluated t = t.evaluated

type extraction = {
  mapped : Mapped.t;
  duplicated_gates : int;
  taps : int;
  cover_counts : int array;
}

(* Instantiate cells for all needed signals, memoized per subject node:
   [inst_of.(v)] is the instance built for [v] (-1 before it is), and
   [cover_counts.(u)] how many instances cover base gate [u]. *)
let extract t =
  let tbl = t.table in
  let subject = tbl.Matches.subject in
  let { Matches.cells; cell; leaf_first; leaves; cov_first; covered; _ } =
    tbl
  in
  let n = Subject.num_nodes subject in
  let inst_of = Array.make n (-1) in
  let cover_counts = Array.make n 0 in
  let instances = ref [] in
  let count = ref 0 in
  let taps = ref 0 in
  let rec inst v =
    match subject.Subject.gates.(v) with
    | Subject.Pi idx -> Mapped.Of_pi idx
    | Subject.Inv _ | Subject.Nand2 _ ->
      if inst_of.(v) >= 0 then begin
        incr taps;
        Mapped.Of_inst inst_of.(v)
      end
      else begin
        let c = t.chosen.(v) in
        if c < 0 then failwith "Cover.extract: no solution at needed gate";
        let l0 = leaf_first.(c) in
        let fanins =
          Array.init (leaf_first.(c + 1) - l0) (fun j -> inst leaves.(l0 + j))
        in
        let idx = !count in
        incr count;
        instances :=
          { Mapped.cell = cells.(cell.(c)); fanins;
            seed = { Geom.x = t.com_x.(v); y = t.com_y.(v) } }
          :: !instances;
        for j = cov_first.(c) to cov_first.(c + 1) - 1 do
          let u = covered.(j) in
          cover_counts.(u) <- cover_counts.(u) + 1
        done;
        inst_of.(v) <- idx;
        Mapped.Of_inst idx
      end
  in
  let outputs =
    Array.map (fun (name, v) -> (name, inst v)) subject.Subject.outputs
  in
  let mapped =
    Mapped.make ~pi_names:subject.Subject.pi_names
      ~instances:(Array.of_list (List.rev !instances))
      ~outputs
  in
  let duplicated_gates =
    Array.fold_left (fun acc c -> acc + Int.max 0 (c - 1)) 0 cover_counts
  in
  { mapped; duplicated_gates; taps = !taps; cover_counts }

let check_coverage t extraction =
  let missing = ref [] in
  Array.iteri
    (fun v g ->
      match g with
      | Subject.Pi _ -> ()
      | Subject.Inv _ | Subject.Nand2 _ ->
        if t.partition.Partition.live.(v) && extraction.cover_counts.(v) = 0
        then missing := v :: !missing)
    t.table.Matches.subject.Subject.gates;
  match !missing with
  | [] -> Ok ()
  | vs ->
    Error
      (Printf.sprintf "%d live gates uncovered (first: %d)" (List.length vs)
         (List.hd (List.rev vs)))
