module Geom = Cals_util.Geom
module Subject = Cals_netlist.Subject

type t = {
  weights : int array;
  fixed : Geom.point option array;
  nets : int array array;
}

let num_nodes t = Array.length t.weights

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

(* One net's bounding box folded in four float locals, with the
   [Stdlib.min]/[max] semantics of [Geom.bbox_add] (the box side first),
   so the result is bit-identical to folding [Geom.bbox_add] from
   [Geom.bbox_empty] and taking [Geom.half_perimeter]. *)
let span_hpwl pos pins lo hi =
  let lx = ref infinity and ly = ref infinity in
  let hx = ref neg_infinity and hy = ref neg_infinity in
  for i = lo to hi - 1 do
    let p = pos.(pins.(i)) in
    let x = p.Geom.x and y = p.Geom.y in
    if not (!lx <= x) then lx := x;
    if not (!ly <= y) then ly := y;
    if not (!hx >= x) then hx := x;
    if not (!hy >= y) then hy := y
  done;
  !hx -. !lx +. (!hy -. !ly)
