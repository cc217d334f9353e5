type t = {
  die_width : float;
  die_height : float;
  row_height : float;
  site_width : float;
  num_rows : int;
  sites_per_row : int;
}

let of_rows ~num_rows ~sites_per_row ~geometry =
  if num_rows < 1 || sites_per_row < 1 then invalid_arg "Floorplan.of_rows";
  let row_height = geometry.Cals_cell.Library.row_height in
  let site_width = geometry.Cals_cell.Library.site_width in
  {
    die_width = float_of_int sites_per_row *. site_width;
    die_height = float_of_int num_rows *. row_height;
    row_height;
    site_width;
    num_rows;
    sites_per_row;
  }

let for_area ~core_area ~utilization ~aspect ~geometry =
  if utilization <= 0.0 || utilization > 1.0 then
    invalid_arg "Floorplan.for_area: utilization";
  let die_area = core_area /. utilization in
  let die_height = sqrt (die_area /. aspect) in
  let die_width = aspect *. die_height in
  (* Snap to whole rows and sites so utilization is well defined. *)
  let row_height = geometry.Cals_cell.Library.row_height in
  let site_width = geometry.Cals_cell.Library.site_width in
  let num_rows = max 1 (int_of_float (ceil (die_height /. row_height))) in
  let sites_per_row = max 1 (int_of_float (ceil (die_width /. site_width))) in
  of_rows ~num_rows ~sites_per_row ~geometry

let core_area t = t.die_width *. t.die_height
let row_y t i = (float_of_int i +. 0.5) *. t.row_height

let row_of_y t y =
  let r = int_of_float (Float.round ((y /. t.row_height) -. 0.5)) in
  if r < 0 || r >= t.num_rows || abs_float (y -. row_y t r) > 1e-6 then None
  else Some r
let utilization t ~cell_area = cell_area /. core_area t

let pad_positions t ~names =
  let n = Array.length names in
  let perimeter = 2.0 *. (t.die_width +. t.die_height) in
  Array.init n (fun i ->
      let d = (float_of_int i +. 0.5) *. perimeter /. float_of_int (max 1 n) in
      if d < t.die_width then Cals_util.Geom.point d 0.0
      else if d < t.die_width +. t.die_height then
        Cals_util.Geom.point t.die_width (d -. t.die_width)
      else if d < (2.0 *. t.die_width) +. t.die_height then
        Cals_util.Geom.point ((2.0 *. t.die_width) +. t.die_height -. d) t.die_height
      else Cals_util.Geom.point 0.0 (perimeter -. d))

let contains t p =
  p.Cals_util.Geom.x >= 0.0
  && p.Cals_util.Geom.x <= t.die_width
  && p.Cals_util.Geom.y >= 0.0
  && p.Cals_util.Geom.y <= t.die_height

let describe t =
  Printf.sprintf "%.0fx%.0fum (%.0f um2), %d rows of %d sites" t.die_width
    t.die_height (core_area t) t.num_rows t.sites_per_row
