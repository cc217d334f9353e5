module Geom = Cals_util.Geom
module Mapped = Cals_netlist.Mapped

type mapped_placement = {
  cell_pos : Geom.point array;
  pi_pos : Geom.point array;
  po_pos : Geom.point array;
  hpwl : float;
  row_fill : int array;
  nets : Mapped.net_table;
}

let place_subject subject ~floorplan ~rng =
  let hg, _po_ids = Hypergraph.of_subject subject ~floorplan in
  let pos = Bisect.place hg ~floorplan ~rng in
  Array.sub pos 0 (Cals_netlist.Subject.num_nodes subject)

(* Node layout of the legalizer, as in {!Mapped.net_table}'s pin ids:
   the cells, then the PI pads, then the PO pads (fixed, zero width). *)
let place_mapped_seeded mapped ~floorplan =
  let { Mapped.pi_names; instances; outputs } = mapped in
  let n_cells = Array.length instances and n_pi = Array.length pi_names in
  let pads =
    Floorplan.pad_positions floorplan
      ~names:(Array.append pi_names (Array.map fst outputs))
  in
  let widths =
    Array.append
      (Array.map (fun i -> i.Mapped.cell.Cals_cell.Cell.width_sites) instances)
      (Array.make (Array.length pads) 0)
  in
  let desired = Array.append (Array.map (fun i -> i.Mapped.seed) instances) pads in
  let movable = Array.init (Array.length desired) (fun i -> i < n_cells) in
  let legal = Legalize.run ~floorplan ~widths ~desired ~movable in
  let pos = legal.Legalize.positions in
  let nets = Mapped.net_table mapped in
  let first = nets.Mapped.first and hpwl = ref 0.0 in
  for n = 0 to Array.length first - 2 do
    if first.(n) < first.(n + 1) then
      hpwl := !hpwl +. Hypergraph.span_hpwl pos nets.Mapped.pins first.(n) first.(n + 1)
  done;
  {
    cell_pos = Array.sub pos 0 n_cells;
    pi_pos = Array.sub pos n_cells n_pi;
    po_pos = Array.sub pos (n_cells + n_pi) (Array.length outputs);
    hpwl = !hpwl;
    row_fill = legal.Legalize.row_fill;
    nets;
  }

let pin_position pl p =
  let n_cells = Array.length pl.cell_pos in
  if p < n_cells then pl.cell_pos.(p)
  else
    let p = p - n_cells in
    if p < Array.length pl.pi_pos then pl.pi_pos.(p)
    else pl.po_pos.(p - Array.length pl.pi_pos)
