(* The list-based route request that Cals_netlist.Mapped.net_table and
   the flat Cals_route.Router.Request replaced: Mapped.nets, the list
   bodies of Request.of_pins and Request.of_mapped, and the list-based
   Prim of Cals_route.Topology. Kept as written as the oracle the flat
   request must reproduce exactly. *)

module Geom = Cals_util.Geom
module Grid2d = Cals_util.Grid2d
module Mapped = Cals_netlist.Mapped
module Rgrid = Cals_route.Rgrid

type sink =
  | Cell_pin of int * int
  | Po of int

type net = {
  driver : Mapped.signal;
  sinks : sink list;
}

let nets (t : Mapped.t) =
  let npis = Array.length t.Mapped.pi_names in
  let n = npis + Array.length t.Mapped.instances in
  let sinks = Array.make n [] in
  (* Collect in reverse so each list ends up in increasing order. *)
  for idx = Array.length t.Mapped.instances - 1 downto 0 do
    let inst = t.Mapped.instances.(idx) in
    for pin = Array.length inst.Mapped.fanins - 1 downto 0 do
      let s = Mapped.signal_index t inst.Mapped.fanins.(pin) in
      sinks.(s) <- Cell_pin (idx, pin) :: sinks.(s)
    done
  done;
  Array.iteri
    (fun oi (_, sg) ->
      let s = Mapped.signal_index t sg in
      sinks.(s) <- sinks.(s) @ [ Po oi ])
    t.Mapped.outputs;
  Array.init n (fun i ->
      let driver = if i < npis then Mapped.Of_pi i else Mapped.Of_inst (i - npis) in
      { driver; sinks = sinks.(i) })

type t = {
  cols : int;
  rows : int;
  pins : Geom.point list array;
  pin_gcells : (int * int) list array;
  net_gcells : (int * int) list array;
  density : Grid2d.t option;
}

let of_pins ?density ~floorplan pins =
  let cols, rows, gcell_um = Rgrid.dims ~floorplan in
  let gcell = Rgrid.gcell_at ~cols ~rows ~gcell_um in
  let pin_gcells = Array.map (List.map gcell) pins in
  let compare_gcell (c1, r1) (c2, r2) =
    let c = Int.compare c1 c2 in
    if c <> 0 then c else Int.compare r1 r2
  in
  let net_gcells = Array.map (List.sort_uniq compare_gcell) pin_gcells in
  { cols; rows; pins; pin_gcells; net_gcells; density }

let of_mapped mapped ~floorplan
    ~(placement : Cals_place.Placement.mapped_placement) =
  let { Cals_place.Placement.cell_pos; pi_pos; po_pos; _ } = placement in
  (* Driver pin first, then the sinks; sinkless nets route nothing. *)
  let driver_pos = function
    | Mapped.Of_pi i -> pi_pos.(i)
    | Mapped.Of_inst i -> cell_pos.(i)
  in
  let sink_pos = function
    | Cell_pin (i, _) -> cell_pos.(i)
    | Po oi -> po_pos.(oi)
  in
  let pins =
    Array.map
      (fun net ->
        match net.sinks with
        | [] -> []
        | sinks -> driver_pos net.driver :: List.map sink_pos sinks)
      (nets mapped)
  in
  let req = of_pins ~floorplan pins in
  let { cols; rows; _ } = req in
  let _, _, gcell_um = Rgrid.dims ~floorplan in
  (* Cell-area fraction per gcell, for the M1 blockage model. *)
  let density = Grid2d.create ~cols ~rows 0.0 in
  Array.iteri
    (fun i inst ->
      let c, r = Rgrid.gcell_at ~cols ~rows ~gcell_um cell_pos.(i) in
      Grid2d.add density c r inst.Mapped.cell.Cals_cell.Cell.area)
    mapped.Mapped.instances;
  Grid2d.map_inplace (fun a -> a /. (gcell_um *. gcell_um)) density;
  { req with density = Some density }

let manhattan (c1, r1) (c2, r2) = abs (c1 - c2) + abs (r1 - r2)

(* Prim over pins that are already distinct and sorted. *)
let mst_segments_sorted pins =
  match pins with
  | [] | [ _ ] -> []
  | first :: _ ->
    let arr = Array.of_list pins in
    let n = Array.length arr in
    let in_tree = Array.make n false in
    let dist = Array.make n max_int in
    let parent = Array.make n (-1) in
    let first_idx = ref 0 in
    Array.iteri (fun i p -> if p = first then first_idx := i) arr;
    dist.(!first_idx) <- 0;
    let segments = ref [] in
    for _ = 1 to n do
      (* Pick the closest node not yet in the tree. *)
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if (not in_tree.(i)) && (!best < 0 || dist.(i) < dist.(!best)) then best := i
      done;
      let u = !best in
      in_tree.(u) <- true;
      if parent.(u) >= 0 then segments := (arr.(parent.(u)), arr.(u)) :: !segments;
      for v = 0 to n - 1 do
        if not in_tree.(v) then begin
          let d = manhattan arr.(u) arr.(v) in
          if d < dist.(v) then begin
            dist.(v) <- d;
            parent.(v) <- u
          end
        end
      done
    done;
    List.rev !segments

let segments req =
  List.concat
    (List.mapi
       (fun net cells ->
         List.map (fun (src, dst) -> (net, src, dst)) (mst_segments_sorted cells))
       (Array.to_list req.net_gcells))
