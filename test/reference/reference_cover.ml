(* The list-based covering DP and extraction that [Cals_core.Cover]
   replaced: candidates as records, a [solution] record per chosen
   vertex, the metric called through a closure. Kept as the oracle the
   flat cover is compared against, gate by gate and bit for bit. *)

module Geom = Cals_util.Geom
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Cell = Cals_cell.Cell
module Library = Cals_cell.Library
module Partition = Cals_core.Partition
module Matches = Cals_core.Matches
module Cover = Cals_core.Cover

type candidate = {
  cell : Cell.t;
  leaves : int array;
  covered : int list;
}

type node_matches = {
  candidates : candidate array;
  enumerated : int;
}

type matchset = node_matches option array

type t = {
  subject : Subject.t;
  partition : Partition.t;
  sols : Cover.solution option array;
  evaluated : int;
}

let is_gate subject v =
  match subject.Subject.gates.(v) with
  | Subject.Pi _ -> false
  | Subject.Inv _ | Subject.Nand2 _ -> true

(* Wire cost of the Pedram-Bhat-style transitive variant: total original
   edge length of the full fanin cone below a node. *)
let tfi_wire subject ~positions ~distance =
  let n = Subject.num_nodes subject in
  let memo = Array.make n nan in
  let rec go v =
    if memo.(v) = memo.(v) (* not NaN *) then memo.(v)
    else begin
      let total =
        List.fold_left
          (fun acc c -> acc +. distance positions.(v) positions.(c) +. go c)
          0.0
          (Subject.fanins subject.Subject.gates.(v))
      in
      memo.(v) <- total;
      total
    end
  in
  for v = 0 to n - 1 do
    ignore (go v)
  done;
  memo

let run ~matchsets subject ~library ~partition ~positions
    (options : Cover.options) =
  let n = Subject.num_nodes subject in
  let distance = Geom.distance options.Cover.distance in
  let wire = Library.wire library in
  let res = wire.Library.res_kohm_per_um and cap = wire.Library.cap_pf_per_um in
  let cur_x = Array.map (fun p -> p.Geom.x) positions in
  let cur_y = Array.map (fun p -> p.Geom.y) positions in
  let sols : Cover.solution option array = Array.make n None in
  (* Per-node memoized figures for fanin lookups (Eqs. 1 and 3). PIs keep
     zero cost and their pad position. *)
  let node_com = Array.copy positions in
  let node_wire = Array.make n 0.0 in
  let node_area = Array.make n 0.0 in
  let node_arrival = Array.make n 0.0 in
  let tfi =
    if options.Cover.transitive_wire then tfi_wire subject ~positions ~distance
    else [||]
  in
  let evaluated = ref 0 in
  let fanout_counts = Subject.fanout_counts subject in
  for v = 0 to n - 1 do
    if partition.Partition.live.(v) && is_gate subject v then begin
      let nm =
        match matchsets.(v) with
        | Some nm -> nm
        | None ->
          invalid_arg
            (Printf.sprintf "Reference_cover.run: no match set at live gate %d"
               v)
      in
      evaluated := !evaluated + nm.enumerated;
      let load = 0.01 *. float_of_int (Int.max 1 fanout_counts.(v)) in
      let best = ref None in
      Array.iter
        (fun { cell; leaves; covered } ->
          let m = float_of_int (List.length covered) in
          let com =
            Geom.
              {
                x = List.fold_left (fun a u -> a +. cur_x.(u)) 0.0 covered /. m;
                y = List.fold_left (fun a u -> a +. cur_y.(u)) 0.0 covered /. m;
              }
          in
          let area =
            Array.fold_left (fun a l -> a +. node_area.(l)) cell.Cell.area leaves
          in
          let dists = Array.map (fun l -> distance com node_com.(l)) leaves in
          let wire_cost =
            if options.Cover.transitive_wire then
              Array.fold_left
                (fun w l -> w +. distance com positions.(l) +. tfi.(l))
                0.0 leaves
            else begin
              let wire1 = Array.fold_left ( +. ) 0.0 dists in
              if options.Cover.include_wire2 then
                Array.fold_left (fun w l -> w +. node_wire.(l)) wire1 leaves
              else wire1
            end
          in
          (* Elmore wire delay on each leaf-to-match edge. *)
          let latest = ref 0.0 in
          Array.iteri
            (fun i l ->
              let d = dists.(i) in
              let r = d *. res and c = d *. cap in
              let t_wire = r *. ((c /. 2.0) +. cell.Cell.input_cap_pf) in
              let t = node_arrival.(l) +. t_wire in
              if t > !latest then latest := t)
            leaves;
          let arrival_ns = !latest +. Cell.delay_ns cell ~load_pf:load in
          let cost =
            area +. (options.Cover.k *. wire_cost)
            +. (options.Cover.t *. arrival_ns)
          in
          let sol =
            { Cover.cell; leaves; covered; area_cost = area; wire_cost;
              arrival_ns; cost; com }
          in
          match !best with
          | Some (b : Cover.solution)
            when b.Cover.cost < cost
                 || (b.Cover.cost = cost && b.Cover.area_cost <= area) ->
            ()
          | Some _ | None -> best := Some sol)
        nm.candidates;
      let sol =
        match !best with
        | Some s -> s
        | None -> failwith "Reference_cover.run: no match at a live gate"
      in
      sols.(v) <- Some sol;
      node_com.(v) <- sol.Cover.com;
      node_wire.(v) <- sol.Cover.wire_cost;
      node_area.(v) <- sol.Cover.area_cost;
      node_arrival.(v) <- sol.Cover.arrival_ns;
      if options.Cover.incremental_update then
        List.iter
          (fun u ->
            cur_x.(u) <- sol.Cover.com.Geom.x;
            cur_y.(u) <- sol.Cover.com.Geom.y)
          sol.Cover.covered
    end
  done;
  { subject; partition; sols; evaluated = !evaluated }

let solution t v = t.sols.(v)
let matches_evaluated t = t.evaluated

let extract t =
  let n = Subject.num_nodes t.subject in
  let inst_of = Array.make n (-1) in
  let cover_counts = Array.make n 0 in
  let instances = ref [] in
  let count = ref 0 in
  let taps = ref 0 in
  let rec inst v =
    match t.subject.Subject.gates.(v) with
    | Subject.Pi idx -> Mapped.Of_pi idx
    | Subject.Inv _ | Subject.Nand2 _ ->
      if inst_of.(v) >= 0 then begin
        incr taps;
        Mapped.Of_inst inst_of.(v)
      end
      else begin
        let sol =
          match t.sols.(v) with
          | Some s -> s
          | None -> failwith "Reference_cover.extract: no solution at needed gate"
        in
        let fanins = Array.map inst sol.Cover.leaves in
        let idx = !count in
        incr count;
        instances :=
          { Mapped.cell = sol.Cover.cell; fanins; seed = sol.Cover.com }
          :: !instances;
        List.iter
          (fun u -> cover_counts.(u) <- cover_counts.(u) + 1)
          sol.Cover.covered;
        inst_of.(v) <- idx;
        Mapped.Of_inst idx
      end
  in
  let outputs =
    Array.map (fun (name, v) -> (name, inst v)) t.subject.Subject.outputs
  in
  let mapped =
    Mapped.make ~pi_names:t.subject.Subject.pi_names
      ~instances:(Array.of_list (List.rev !instances))
      ~outputs
  in
  let duplicated_gates =
    Array.fold_left (fun acc c -> acc + Int.max 0 (c - 1)) 0 cover_counts
  in
  { Cover.mapped; duplicated_gates; taps = !taps; cover_counts }
