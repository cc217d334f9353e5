module Geom = Cals_util.Geom
module Floorplan = Cals_place.Floorplan
module Metrics = Cals_telemetry.Metrics

let m_grids = Metrics.counter ~help:"Routing grids built" "rgrid_created"

let g_gcells =
  Metrics.gauge ~help:"Gcells in the last routing grid built" "rgrid_gcells"

type t = {
  cols : int;
  rows : int;
  gcell_um : float;
  hcap : float array;
  vcap : float array;
  husage : float array;
  vusage : float array;
  hhistory : float array;
  vhistory : float array;
  hmark : Bytes.t;
  vmark : Bytes.t;
}

type edge =
  | H of int * int
  | V of int * int

(* A gcell is [gcell_rows] row heights on a side; M1 offers [m1_free]
   tracks per direction over an empty one. *)
let gcell_rows = 2
let m1_free = 1.3

(* Grid geometry alone — shared with callers (the router's session) that
   need gcell coordinates before any capacity array exists. *)
let dims ~floorplan =
  let gcell_um = float_of_int gcell_rows *. floorplan.Floorplan.row_height in
  let cols =
    max 2 (int_of_float (ceil (floorplan.Floorplan.die_width /. gcell_um)))
  in
  let rows =
    max 2 (int_of_float (ceil (floorplan.Floorplan.die_height /. gcell_um)))
  in
  (cols, rows, gcell_um)

let[@inline] gcell_index ~gcell_um ~n v =
  let i = int_of_float (v /. gcell_um) in
  if i < 0 then 0 else if i >= n then n - 1 else i

(* Takes the point rather than its coordinates, so callers in other
   modules pass no boxed floats. *)
let gcell_at ~cols ~rows ~gcell_um (p : Geom.point) =
  ( gcell_index ~gcell_um ~n:cols p.Geom.x,
    gcell_index ~gcell_um ~n:rows p.Geom.y )

let gcell_id ~cols ~rows ~gcell_um (p : Geom.point) =
  (gcell_index ~gcell_um ~n:cols p.Geom.x * rows)
  + gcell_index ~gcell_um ~n:rows p.Geom.y

type track_model = {
  tracks : float;
  nh : float;
  nv : float;
  density_at : int -> int -> float;
}

(* Layers above M1 alternate directions and contribute their full track
   count; M1 contributes what the standard cells leave over, so local
   placement density directly eats routing capacity — the mechanism by
   which a cell-area penalty "limits the amount of available wiring
   resources" (paper, Section 4). *)
let track_model ~gcell_um ~wire ~layers ?density () =
  let n_routing = max 0 (layers - 1) in
  let density_at c r =
    match density with
    | None -> 0.0
    | Some g ->
      let c = min c (Cals_util.Grid2d.cols g - 1)
      and r = min r (Cals_util.Grid2d.rows g - 1) in
      Cals_util.Geom.clamp 0.0 1.0 (Cals_util.Grid2d.get g c r)
  in
  let tracks = gcell_um /. wire.Cals_cell.Library.pitch_um in
  let nh = float_of_int ((n_routing + 1) / 2) in
  { tracks; nh; nv = float_of_int (n_routing / 2); density_at }

(* An edge offers the mean of its two gcells' free track share. *)
let hcapacity { tracks; nh; density_at; _ } c r =
  let d = (density_at c r +. density_at (c + 1) r) /. 2.0 in
  tracks *. (nh +. (m1_free *. (1.0 -. d)))

let vcapacity { tracks; nv; density_at; _ } c r =
  let d = (density_at c r +. density_at c (r + 1)) /. 2.0 in
  tracks *. (nv +. (m1_free *. (1.0 -. d)))

let create ~floorplan ~wire ~layers ?density () =
  if layers < 2 then invalid_arg "Rgrid.create: need at least 2 metal layers";
  let cols, rows, gcell_um = dims ~floorplan in
  let model = track_model ~gcell_um ~wire ~layers ?density () in
  let hcap = Array.make ((cols - 1) * rows) 0.0 in
  let vcap = Array.make (cols * (rows - 1)) 0.0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 2 do
      hcap.((r * (cols - 1)) + c) <- hcapacity model c r
    done
  done;
  for r = 0 to rows - 2 do
    for c = 0 to cols - 1 do
      vcap.((r * cols) + c) <- vcapacity model c r
    done
  done;
  Metrics.incr m_grids;
  Metrics.set g_gcells (float_of_int (cols * rows));
  {
    cols;
    rows;
    gcell_um;
    hcap;
    vcap;
    husage = Array.make ((cols - 1) * rows) 0.0;
    vusage = Array.make (cols * (rows - 1)) 0.0;
    hhistory = Array.make ((cols - 1) * rows) 0.0;
    vhistory = Array.make (cols * (rows - 1)) 0.0;
    hmark = Bytes.make ((((cols - 1) * rows) + 7) / 8) '\000';
    vmark = Bytes.make (((cols * (rows - 1)) + 7) / 8) '\000';
  }

let hindex t c r =
  if c < 0 || c >= t.cols - 1 || r < 0 || r >= t.rows then
    invalid_arg "Rgrid: horizontal edge out of range";
  (r * (t.cols - 1)) + c

let vindex t c r =
  if c < 0 || c >= t.cols || r < 0 || r >= t.rows - 1 then
    invalid_arg "Rgrid: vertical edge out of range";
  (r * t.cols) + c

let capacity t = function
  | H (c, r) -> t.hcap.(hindex t c r)
  | V (c, r) -> t.vcap.(vindex t c r)

let usage t = function
  | H (c, r) -> t.husage.(hindex t c r)
  | V (c, r) -> t.vusage.(vindex t c r)

let overflow t e = max 0.0 (usage t e -. capacity t e)

(* Flat per-edge bitfield for the router's overflow marking: one bit per
   edge, cleared wholesale at each negotiation iteration. *)
let bit_set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

let bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* The mark operations take flat indices, for the router's hot loops (no
   edge constructor, no bounds re-derivation). *)
let num_hedges t = (t.cols - 1) * t.rows
let num_vedges t = t.cols * (t.rows - 1)
let mark_h t i = bit_set t.hmark i
let mark_v t i = bit_set t.vmark i
let marked_h t i = bit_get t.hmark i
let marked_v t i = bit_get t.vmark i

let iter_overflowed t ~h ~v =
  for i = 0 to num_hedges t - 1 do
    if t.husage.(i) > t.hcap.(i) then h i
  done;
  for i = 0 to num_vedges t - 1 do
    if t.vusage.(i) > t.vcap.(i) then v i
  done

let clear_overflow_marks t =
  Bytes.fill t.hmark 0 (Bytes.length t.hmark) '\000';
  Bytes.fill t.vmark 0 (Bytes.length t.vmark) '\000'

let iter_edges t f =
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cols - 2 do
      f (H (c, r))
    done
  done;
  for r = 0 to t.rows - 2 do
    for c = 0 to t.cols - 1 do
      f (V (c, r))
    done
  done

(* The whole-grid scans below walk the flat arrays directly, horizontal
   edges in index order and then vertical ones — the order of
   [iter_edges], so the float sums are the same bits. *)
let total_overflow t =
  let acc = ref 0.0 in
  for i = 0 to num_hedges t - 1 do
    let o = t.husage.(i) -. t.hcap.(i) in
    if o > 0.0 then acc := !acc +. o
  done;
  for i = 0 to num_vedges t - 1 do
    let o = t.vusage.(i) -. t.vcap.(i) in
    if o > 0.0 then acc := !acc +. o
  done;
  !acc

let max_utilization t =
  let m = ref 0.0 in
  let scan (usage : float array) (cap : float array) =
    for i = 0 to Array.length usage - 1 do
      let u = usage.(i) /. Float.max 1e-9 cap.(i) in
      if u > !m then m := u
    done
  in
  scan t.husage t.hcap;
  scan t.vusage t.vcap;
  !m

let congestion_map t =
  let g = Cals_util.Grid2d.create ~cols:t.cols ~rows:t.rows 0.0 in
  iter_edges t (fun e ->
      let util = usage t e /. max 1e-9 (capacity t e) in
      let touch c r =
        if util > Cals_util.Grid2d.get g c r then Cals_util.Grid2d.set g c r util
      in
      match e with
      | H (c, r) ->
        touch c r;
        touch (c + 1) r
      | V (c, r) ->
        touch c r;
        touch c (r + 1));
  g
