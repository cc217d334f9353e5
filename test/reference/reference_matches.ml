(* The association-list enumerator that [Cals_core.Matches.add_node]
   replaced: every binding of a pattern at a node as a list of
   (variable, node) pairs and a list of covered gates, joined with [@].
   Kept as the oracle the in-place walk is compared against, slice by
   slice. *)

module Subject = Cals_netlist.Subject
module Cell = Cals_cell.Cell
module Pattern = Cals_cell.Pattern
module Library = Cals_cell.Library
module Partition = Cals_core.Partition

(* A candidate is a consistent binding of pattern variables to subject
   nodes plus the list of base gates the pattern consumes. Internal
   pattern nodes may only descend along tree-internal edges; leaves bind
   anywhere (the fanin becomes an input of the cell). *)
let enumerate_matches subject (partition : Partition.t) pattern v =
  let gates = subject.Subject.gates in
  let rec go pattern v bind =
    match pattern with
    | Pattern.Var i -> (
      match List.assoc_opt i bind with
      | Some u -> if u = v then [ (bind, []) ] else []
      | None -> [ ((i, v) :: bind, []) ])
    | Pattern.Inv q -> (
      match gates.(v) with
      | Subject.Inv a ->
        descend q a v bind |> List.map (fun (b, cov) -> (b, v :: cov))
      | Subject.Pi _ | Subject.Nand2 _ -> [])
    | Pattern.Nand (q1, q2) -> (
      match gates.(v) with
      | Subject.Nand2 (a, b) ->
        let orient x y =
          List.concat_map
            (fun (b1, cov1) ->
              descend q2 y v b1
              |> List.map (fun (b2, cov2) -> (b2, (v :: cov1) @ cov2)))
            (descend q1 x v bind)
        in
        if a = b then orient a a else orient a b @ orient b a
      | Subject.Pi _ | Subject.Inv _ -> [])
  and descend q child parent bind =
    match q with
    | Pattern.Var _ -> go q child bind
    | Pattern.Inv _ | Pattern.Nand _ ->
      if partition.Partition.father.(child) = Some parent then go q child bind
      else []
  in
  go pattern v []

let node_matches subject ~library ~partition v =
  let enumerated = ref 0 in
  let candidates =
    List.concat_map
      (fun (cell : Cell.t) ->
        List.concat_map
          (fun pattern ->
            let nvars = Pattern.num_vars pattern in
            List.filter_map
              (fun (binding, covered) ->
                incr enumerated;
                let leaves = Array.make nvars (-1) in
                List.iter (fun (var, node) -> leaves.(var) <- node) binding;
                if Array.for_all (fun l -> l >= 0) leaves then
                  Some { Reference_cover.cell; leaves; covered }
                else None)
              (enumerate_matches subject partition pattern v))
          cell.Cell.patterns)
      (Library.cells library)
  in
  { Reference_cover.candidates = Array.of_list candidates;
    enumerated = !enumerated }
