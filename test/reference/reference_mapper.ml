module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Mapper = Cals_core.Mapper
module Matches = Cals_core.Matches
module Cover = Cals_core.Cover
module Partition = Cals_core.Partition

let table subject ~library ~partition =
  let table = Matches.create subject ~library in
  let walker = Matches.walker table ~partition in
  Array.iteri
    (fun v g ->
      match g with
      | Subject.Pi _ -> ()
      | Subject.Inv _ | Subject.Nand2 _ ->
        if partition.Partition.live.(v) then Matches.add_node walker v)
    subject.Subject.gates;
  table

(* Node [v]'s candidates read off the table's slices. *)
let node_matches (t : Matches.table) v =
  let candidate c =
    let l0 = t.Matches.leaf_first.(c) and c0 = t.Matches.cov_first.(c) in
    {
      Reference_cover.cell = t.Matches.cells.(t.Matches.cell.(c));
      leaves = Array.sub t.Matches.leaves l0 (t.Matches.leaf_first.(c + 1) - l0);
      covered =
        List.init (t.Matches.cov_first.(c + 1) - c0) (fun j ->
            t.Matches.covered.(c0 + j));
    }
  in
  {
    Reference_cover.candidates =
      Array.init (t.Matches.stop.(v) - t.Matches.first.(v)) (fun i ->
          candidate (t.Matches.first.(v) + i));
    enumerated = t.Matches.enumerated.(v);
  }

let matchset subject ~library ~partition =
  let table = table subject ~library ~partition in
  Array.init (Subject.num_nodes subject) (fun v ->
      if Matches.mem table v then Some (node_matches table v) else None)

let map ?(verify = false) subject ~library ~positions (options : Mapper.options)
    =
  let partition =
    Partition.run options.strategy subject ~positions
      ~distance:options.distance
  in
  let cover_options =
    {
      Cover.k = options.k *. options.wire_scale;
      t = options.t;
      distance = options.distance;
      incremental_update = options.incremental_update;
      include_wire2 = options.include_wire2;
      transitive_wire = options.transitive_wire;
    }
  in
  let cover =
    Cover.run
      (table subject ~library ~partition)
      ~partition ~positions cover_options
  in
  let extraction = Cover.extract cover in
  if verify then
    Cals_verify.Check.record ~stage:"cover"
      (Cover.check_coverage cover extraction);
  let mapped = extraction.Cover.mapped in
  let stats =
    {
      Mapper.cells = Mapped.num_cells mapped;
      cell_area = Mapped.total_area mapped;
      matches_evaluated = Cover.matches_evaluated cover;
      duplicated_gates = extraction.Cover.duplicated_gates;
      taps = extraction.Cover.taps;
    }
  in
  { Mapper.mapped; stats; cover }
