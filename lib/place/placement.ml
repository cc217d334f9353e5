module Geom = Cals_util.Geom
module Mapped = Cals_netlist.Mapped

type mapped_placement = {
  cell_pos : Geom.point array;
  pi_pos : Geom.point array;
  po_pos : Geom.point array;
  hpwl : float;
  row_fill : int array;
}

let place_subject subject ~floorplan ~rng =
  let hg, _po_ids = Hypergraph.of_subject subject ~floorplan in
  let pos = Bisect.place hg ~floorplan ~rng in
  Array.sub pos 0 (Cals_netlist.Subject.num_nodes subject)

let place_mapped_seeded mapped ~floorplan =
  let hg, _, _ = Hypergraph.of_mapped mapped ~floorplan in
  let desired =
    Array.init (Hypergraph.num_nodes hg) (fun i ->
        match hg.Hypergraph.fixed.(i) with
        | Some p -> p
        | None -> mapped.Mapped.instances.(i).Mapped.seed)
  in
  let n_cells = Array.length mapped.Mapped.instances in
  let movable = Array.map Option.is_none hg.Hypergraph.fixed in
  let legal =
    Legalize.run ~floorplan ~widths:hg.Hypergraph.weights ~desired ~movable
  in
  let hpwl = Hypergraph.hpwl hg legal.Legalize.positions in
  let n_pi = Array.length mapped.Mapped.pi_names in
  let n_po = Array.length mapped.Mapped.outputs in
  {
    cell_pos = Array.sub legal.Legalize.positions 0 n_cells;
    pi_pos = Array.sub legal.Legalize.positions n_cells n_pi;
    po_pos = Array.sub legal.Legalize.positions (n_cells + n_pi) n_po;
    hpwl;
    row_fill = legal.Legalize.row_fill;
  }
