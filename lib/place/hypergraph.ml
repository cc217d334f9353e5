module Geom = Cals_util.Geom
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped

type t = {
  weights : int array;
  fixed : Geom.point option array;
  nets : int array array;
}

let num_nodes t = Array.length t.weights

let num_movable t =
  Array.fold_left
    (fun acc f -> match f with None -> acc + 1 | Some _ -> acc)
    0 t.fixed

let of_subject subject ~floorplan =
  let n = Subject.num_nodes subject in
  let outs = subject.Subject.outputs in
  let n_po = Array.length outs in
  let total = n + n_po in
  let weights = Array.make total 1 in
  let fixed = Array.make total None in
  (* PI pads: evenly spread PIs and POs around the ring together so inputs
     and outputs interleave like a real pad ring. *)
  let pad_names =
    Array.append subject.Subject.pi_names (Array.map fst outs)
  in
  let pads = Floorplan.pad_positions floorplan ~names:pad_names in
  let n_pi = Array.length subject.Subject.pi_names in
  Array.iteri
    (fun v g ->
      match g with
      | Subject.Pi idx ->
        fixed.(v) <- Some pads.(idx);
        weights.(v) <- 0
      | Subject.Inv _ | Subject.Nand2 _ -> ())
    subject.Subject.gates;
  Array.iteri
    (fun oi _ ->
      fixed.(n + oi) <- Some pads.(n_pi + oi);
      weights.(n + oi) <- 0)
    outs;
  let fanouts = Subject.fanouts subject in
  let po_sinks = Array.make n [] in
  Array.iteri (fun oi (_, v) -> po_sinks.(v) <- (n + oi) :: po_sinks.(v)) outs;
  let nets = ref [] in
  for v = 0 to n - 1 do
    let pins = fanouts.(v) @ po_sinks.(v) in
    if pins <> [] then nets := Array.of_list (v :: pins) :: !nets
  done;
  let po_pad_ids = Array.init n_po (fun oi -> n + oi) in
  ({ weights; fixed; nets = Array.of_list (List.rev !nets) }, po_pad_ids)

let of_mapped mapped ~floorplan =
  let n_cells = Array.length mapped.Mapped.instances in
  let n_pi = Array.length mapped.Mapped.pi_names in
  let n_po = Array.length mapped.Mapped.outputs in
  let total = n_cells + n_pi + n_po in
  let weights = Array.make total 0 in
  let fixed = Array.make total None in
  Array.iteri
    (fun i inst ->
      weights.(i) <- inst.Mapped.cell.Cals_cell.Cell.width_sites)
    mapped.Mapped.instances;
  let pad_names =
    Array.append mapped.Mapped.pi_names (Array.map fst mapped.Mapped.outputs)
  in
  let pads = Floorplan.pad_positions floorplan ~names:pad_names in
  let pi_pad_ids = Array.init n_pi (fun i -> n_cells + i) in
  let po_pad_ids = Array.init n_po (fun i -> n_cells + n_pi + i) in
  Array.iteri (fun i id -> fixed.(id) <- Some pads.(i)) pi_pad_ids;
  Array.iteri (fun i id -> fixed.(id) <- Some pads.(n_pi + i)) po_pad_ids;
  let node_of_signal = function
    | Mapped.Of_pi i -> pi_pad_ids.(i)
    | Mapped.Of_inst i -> i
  in
  let node_of_sink = function
    | Mapped.Cell_pin (i, _) -> i
    | Mapped.Po oi -> po_pad_ids.(oi)
  in
  let nets =
    Array.fold_right
      (fun net acc ->
        match net.Mapped.sinks with
        | [] -> acc
        | sinks -> (
          (* Collapse duplicate pins on the same net. *)
          match
            List.sort_uniq Int.compare
              (node_of_signal net.Mapped.driver :: List.map node_of_sink sinks)
          with
          | [] | [ _ ] -> acc
          | pins -> Array.of_list pins :: acc))
      (Mapped.nets mapped) []
  in
  ({ weights; fixed; nets = Array.of_list nets }, pi_pad_ids, po_pad_ids)

(* One net's bounding box folded in four float locals, with the
   [Stdlib.min]/[max] semantics of [Geom.bbox_add] (the box side first),
   so the result is bit-identical to folding [Geom.bbox_add] from
   [Geom.bbox_empty] and taking [Geom.half_perimeter]. *)
let net_hpwl pos net =
  let lx = ref infinity and ly = ref infinity in
  let hx = ref neg_infinity and hy = ref neg_infinity in
  for i = 0 to Array.length net - 1 do
    let p = pos.(net.(i)) in
    let x = p.Geom.x and y = p.Geom.y in
    if not (!lx <= x) then lx := x;
    if not (!ly <= y) then ly := y;
    if not (!hx >= x) then hx := x;
    if not (!hy >= y) then hy := y
  done;
  !hx -. !lx +. (!hy -. !ly)

let hpwl t pos =
  let total = ref 0.0 in
  for i = 0 to Array.length t.nets - 1 do
    total := !total +. net_hpwl pos t.nets.(i)
  done;
  !total

let net_degree_stats t =
  let maxd = Array.fold_left (fun m net -> max m (Array.length net)) 0 t.nets in
  let sum = Array.fold_left (fun s net -> s + Array.length net) 0 t.nets in
  (maxd, float_of_int sum /. float_of_int (max 1 (Array.length t.nets)))
