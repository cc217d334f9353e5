module Geom = Cals_util.Geom
module Mapped = Cals_netlist.Mapped
module Cell = Cals_cell.Cell
module Span = Cals_telemetry.Span
module Metrics = Cals_telemetry.Metrics

let m_analyses = Metrics.counter ~help:"Full STA analyses run" "sta_analyses"

let m_endpoints =
  Metrics.counter ~help:"Timing endpoints propagated" "sta_endpoints"

(* The pad driver's resistance into a primary input's net, and the load
   every primary output drives. *)
let input_drive_kohm = 1.0
let output_load_pf = 0.01

type endpoint = {
  po : string;
  through_pi : string;
  arrival_ns : float;
}

type report = {
  endpoints : endpoint array;
  critical : endpoint;
  critical_path : (string * float) list;
  total_net_cap_pf : float;
}

(* Per-net electrical view shared by both entry points. *)
type net_info = {
  driver_pos : Geom.point;
  length_um : float;
  load_pf : float;  (** Wire cap + sum of sink pin caps. *)
}

(* One info per net of the placement's table, in its order. A sink pin
   id below [num_cells] is a cell input, any other an output pad (a PI
   pad only ever drives). *)
let build_net_infos ?net_length_um mapped ~wire ~placement =
  let { Mapped.first; pins } = placement.Cals_place.Placement.nets in
  let instances = mapped.Mapped.instances in
  let n_cells = Array.length instances in
  let pos = Cals_place.Placement.pin_position placement in
  Array.init (Array.length first - 1) (fun ni ->
      let lo = first.(ni) and hi = first.(ni + 1) in
      let driver_pos =
        let n_pi = Array.length mapped.Mapped.pi_names in
        pos (if ni < n_pi then n_cells + ni else ni - n_pi)
      in
      let length =
        match net_length_um with
        | Some lengths when ni < Array.length lengths && lengths.(ni) > 0.0 ->
          lengths.(ni)
        | Some _ | None ->
          (* HPWL of the placed net. *)
          let box = ref Geom.bbox_empty in
          for i = lo to hi - 1 do
            box := Geom.bbox_add !box (pos pins.(i))
          done;
          if lo = hi then 0.0 else Geom.half_perimeter !box
      in
      let pin_caps = ref 0.0 and po_loads = ref 0.0 in
      for i = lo + 1 to hi - 1 do
        let p = pins.(i) in
        if p < n_cells then
          pin_caps := !pin_caps +. instances.(p).Mapped.cell.Cell.input_cap_pf
        else po_loads := !po_loads +. output_load_pf
      done;
      let wire_cap = length *. wire.Cals_cell.Library.cap_pf_per_um in
      { driver_pos; length_um = length; load_pf = wire_cap +. !pin_caps +. !po_loads })

(* Elmore wire delay from a net's driver to one sink. *)
let wire_delay wire (info : net_info) ~sink_pos:sp ~sink_cap:sc =
  let d = Geom.manhattan info.driver_pos sp in
  (* Use the net length to scale distributed cap seen along the branch. *)
  let r = d *. wire.Cals_cell.Library.res_kohm_per_um in
  let c_branch = d *. wire.Cals_cell.Library.cap_pf_per_um in
  r *. ((c_branch /. 2.0) +. sc)

(* Forward propagation. [pi_arrival] gives each PI's start time, or None to
   exclude that PI (used by the single-path query). Returns per-instance
   output arrivals, each PO's arrival, and the latest-fanin trace. *)
let propagate ?net_length_um mapped ~wire ~placement ~pi_arrival =
  let infos = build_net_infos ?net_length_um mapped ~wire ~placement in
  let n_inst = Array.length mapped.Mapped.instances in
  let inst_arrival = Array.make n_inst neg_infinity in
  let best_fanin = Array.make n_inst (-1) in
  (* Arrival of a signal at its driver output. *)
  let signal_arrival = function
    | Mapped.Of_pi i -> (
      match pi_arrival i with
      | None -> neg_infinity
      | Some t ->
        (* Pad driver delay into the PI net. *)
        let info = infos.(Mapped.signal_index mapped (Mapped.Of_pi i)) in
        t +. (input_drive_kohm *. info.load_pf))
    | Mapped.Of_inst i -> inst_arrival.(i)
  in
  Array.iteri
    (fun idx inst ->
      let cell = inst.Mapped.cell in
      let my_pos = placement.Cals_place.Placement.cell_pos.(idx) in
      let latest = ref neg_infinity and latest_pin = ref (-1) in
      Array.iteri
        (fun pin s ->
          let t0 = signal_arrival s in
          if t0 > neg_infinity then begin
            let info = infos.(Mapped.signal_index mapped s) in
            let wd =
              wire_delay wire info ~sink_pos:my_pos
                ~sink_cap:cell.Cell.input_cap_pf
            in
            let t = t0 +. wd in
            if t > !latest then begin
              latest := t;
              latest_pin := pin
            end
          end)
        inst.Mapped.fanins;
      if !latest > neg_infinity then begin
        let my_net = infos.(Mapped.signal_index mapped (Mapped.Of_inst idx)) in
        inst_arrival.(idx) <-
          !latest +. Cell.delay_ns cell ~load_pf:my_net.load_pf;
        best_fanin.(idx) <- !latest_pin
      end)
    mapped.Mapped.instances;
  let po_arrival =
    Array.map
      (fun (_, s) ->
        let t0 = signal_arrival s in
        if t0 = neg_infinity then neg_infinity
        else
          let info = infos.(Mapped.signal_index mapped s) in
          t0 +. (info.length_um *. wire.Cals_cell.Library.res_kohm_per_um
                 *. output_load_pf))
      mapped.Mapped.outputs
  in
  (inst_arrival, best_fanin, po_arrival, infos)

(* Walk the latest-fanin trace back from a signal to a PI. *)
let trace_start mapped best_fanin s =
  let rec go = function
    | Mapped.Of_pi i -> mapped.Mapped.pi_names.(i)
    | Mapped.Of_inst i ->
      let pin = best_fanin.(i) in
      if pin < 0 then "?"
      else go mapped.Mapped.instances.(i).Mapped.fanins.(pin)
  in
  go s

let analyze ?net_length_um mapped ~wire ~placement =
  Span.with_ ~cat:"sta"
    ~meta:(Printf.sprintf "%d cells" (Array.length mapped.Mapped.instances))
    "sta.analyze"
  @@ fun () ->
  Metrics.incr m_analyses;
  Metrics.add m_endpoints (Array.length mapped.Mapped.outputs);
  let inst_arrival, best_fanin, po_arrival, infos =
    propagate ?net_length_um mapped ~wire ~placement ~pi_arrival:(fun _ ->
        Some 0.0)
  in
  let endpoints =
    Array.mapi
      (fun oi (name, s) ->
        {
          po = name;
          through_pi = trace_start mapped best_fanin s;
          arrival_ns = po_arrival.(oi);
        })
      mapped.Mapped.outputs
  in
  let critical =
    Array.fold_left
      (fun best e ->
        match best with
        | Some b when b.arrival_ns >= e.arrival_ns -> best
        | Some _ | None -> Some e)
      None endpoints
    |> function
    | Some e -> e
    | None -> { po = "-"; through_pi = "-"; arrival_ns = 0.0 }
  in
  (* Critical-path trace as (label, arrival) pairs. *)
  let critical_path =
    let _, s =
      Array.to_list mapped.Mapped.outputs
      |> List.find (fun (name, _) -> name = critical.po)
    in
    let rec walk s acc =
      match s with
      | Mapped.Of_pi i -> (mapped.Mapped.pi_names.(i) ^ " (in)", 0.0) :: acc
      | Mapped.Of_inst i ->
        let inst = mapped.Mapped.instances.(i) in
        let label = Printf.sprintf "%s u%d" inst.Mapped.cell.Cell.name i in
        let acc = (label, inst_arrival.(i)) :: acc in
        let pin = best_fanin.(i) in
        if pin < 0 then acc else walk inst.Mapped.fanins.(pin) acc
    in
    walk s [ (critical.po ^ " (out)", critical.arrival_ns) ]
  in
  let total_net_cap =
    Array.fold_left (fun acc info -> acc +. info.load_pf) 0.0 infos
  in
  { endpoints; critical; critical_path; total_net_cap_pf = total_net_cap }

let po_arrival_from_pi ?net_length_um mapped ~wire ~placement ~pi ~po =
  let pi_idx = ref (-1) in
  Array.iteri (fun i n -> if n = pi then pi_idx := i) mapped.Mapped.pi_names;
  if !pi_idx < 0 then None
  else begin
    let _, _, po_arrival, _ =
      propagate ?net_length_um mapped ~wire ~placement ~pi_arrival:(fun i ->
          if i = !pi_idx then Some 0.0 else None)
    in
    let result = ref None in
    Array.iteri
      (fun oi (name, _) ->
        if name = po && po_arrival.(oi) > neg_infinity then
          result := Some po_arrival.(oi))
      mapped.Mapped.outputs;
    !result
  end

let endpoint_to_string e =
  Printf.sprintf "%s (in)  %s (out)  %.2f" e.through_pi e.po e.arrival_ns
