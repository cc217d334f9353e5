module Geom = Cals_util.Geom
module Span = Cals_telemetry.Span
module Metrics = Cals_telemetry.Metrics

exception Overflow of string

let m_cells = Metrics.counter ~help:"Cells legalized onto rows" "legalize_cells"

let m_displacement =
  Metrics.gauge ~help:"Total displacement of the last legalization (um)"
    "legalize_displacement_um"

type result = {
  positions : Geom.point array;
  total_displacement : float;
  row_fill : int array;
}

let run ~floorplan ~widths ~desired ~movable =
  Span.with_ ~cat:"place" "place.legalize" @@ fun () ->
  let fp = floorplan in
  let n = Array.length widths in
  if Array.length desired <> n || Array.length movable <> n then
    invalid_arg "Legalize.run: length mismatch";
  let positions = Array.copy desired in
  let next_free = Array.make fp.Floorplan.num_rows 0 in
  (* Movable cells by desired x; the sort is stable, so ties keep index
     order. *)
  let order =
    Array.of_list
      (List.filter (fun i -> movable.(i) && widths.(i) > 0) (List.init n Fun.id))
  in
  Array.stable_sort
    (fun a b -> Float.compare desired.(a).Geom.x desired.(b).Geom.x)
    order;
  let site = fp.Floorplan.site_width in
  let row_y = Array.init fp.Floorplan.num_rows (Floorplan.row_y fp) in
  let displacement = ref 0.0 in
  (* Gaps left before a cell waste capacity; bound their total by the
     floorplan slack minus a per-row reserve of the widest cell, so by
     pigeonhole some row can always take the next cell. *)
  let total_width = Array.fold_left (fun acc i -> acc + widths.(i)) 0 order in
  let max_width = Array.fold_left (fun acc i -> Int.max acc widths.(i)) 0 order in
  let slack = (fp.Floorplan.num_rows * fp.Floorplan.sites_per_row) - total_width in
  let gap_budget = ref (Int.max 0 (slack - (fp.Floorplan.num_rows * max_width))) in
  let place_cell i =
    let w = widths.(i) in
    let want = desired.(i) in
    (* The best row so far (-1: none yet), its start site and cost. *)
    let best_r = ref (-1) and best_site = ref 0 and best_cost = ref 0.0 in
    let want_site = int_of_float (want.Geom.x /. site) - (w / 2) in
    for r = 0 to fp.Floorplan.num_rows - 1 do
      let raw = Int.max next_free.(r) want_site in
      let start_site = Int.min raw (next_free.(r) + !gap_budget) in
      let start_site =
        if start_site + w > fp.Floorplan.sites_per_row then
          fp.Floorplan.sites_per_row - w
        else start_site
      in
      if start_site >= next_free.(r) && start_site >= 0 then begin
        let x = (float_of_int start_site +. (float_of_int w /. 2.0)) *. site in
        let y = row_y.(r) in
        let cost = abs_float (x -. want.Geom.x) +. abs_float (y -. want.Geom.y) in
        if !best_r < 0 || not (!best_cost <= cost) then begin
          best_r := r;
          best_site := start_site;
          best_cost := cost
        end
      end
    done;
    (* A row turns the cell away only when fewer than [w] of its sites
       are free (the start is clamped left to [sites_per_row - w], and
       is at least [next_free] otherwise), so when every row does, no
       row can take it. *)
    if !best_r < 0 then
      raise
        (Overflow
           (Printf.sprintf "cell %d (%d sites) fits in no row; floorplan %s" i w
              (Floorplan.describe fp)));
    let r = !best_r and start_site = !best_site in
    gap_budget := Int.max 0 (!gap_budget - (start_site - next_free.(r)));
    next_free.(r) <- start_site + w;
    positions.(i) <-
      Geom.point
        ((float_of_int start_site +. (float_of_int w /. 2.0)) *. site)
        row_y.(r);
    displacement := !displacement +. !best_cost
  in
  Array.iter place_cell order;
  Metrics.add m_cells (Array.length order);
  Metrics.set m_displacement !displacement;
  { positions; total_displacement = !displacement; row_fill = Array.copy next_free }
