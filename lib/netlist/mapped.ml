type signal =
  | Of_pi of int
  | Of_inst of int

type instance = {
  cell : Cals_cell.Cell.t;
  fanins : signal array;
  seed : Cals_util.Geom.point;
}

type t = {
  pi_names : string array;
  instances : instance array;
  outputs : (string * signal) array;
}

let check_signal ~npis ~before s =
  match s with
  | Of_pi i -> if i < 0 || i >= npis then invalid_arg "Mapped: bad PI reference"
  | Of_inst i ->
    if i < 0 || i >= before then invalid_arg "Mapped: fanin breaks topological order"

let make ~pi_names ~instances ~outputs =
  let npis = Array.length pi_names in
  Array.iteri
    (fun idx inst ->
      let arity = Cals_cell.Cell.num_inputs inst.cell in
      if Array.length inst.fanins <> arity then
        invalid_arg
          (Printf.sprintf "Mapped: instance %d of %s has %d fanins, expected %d" idx
             inst.cell.Cals_cell.Cell.name
             (Array.length inst.fanins) arity);
      Array.iter (check_signal ~npis ~before:idx) inst.fanins)
    instances;
  Array.iter
    (fun (_, s) -> check_signal ~npis ~before:(Array.length instances) s)
    outputs;
  { pi_names; instances; outputs }

let num_cells t = Array.length t.instances

let total_area t =
  Array.fold_left (fun acc i -> acc +. i.cell.Cals_cell.Cell.area) 0.0 t.instances

let cell_histogram t =
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun i ->
      let name = i.cell.Cals_cell.Cell.name in
      Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
    t.instances;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type sink =
  | Cell_pin of int * int
  | Po of int

type net = {
  driver : signal;
  sinks : sink list;
}

let signal_index t = function
  | Of_pi i -> i
  | Of_inst i -> Array.length t.pi_names + i

let nets t =
  let npis = Array.length t.pi_names in
  let n = npis + Array.length t.instances in
  let sinks = Array.make n [] in
  (* Collect in reverse so each list ends up in increasing order. *)
  for idx = Array.length t.instances - 1 downto 0 do
    let inst = t.instances.(idx) in
    for pin = Array.length inst.fanins - 1 downto 0 do
      let s = signal_index t inst.fanins.(pin) in
      sinks.(s) <- Cell_pin (idx, pin) :: sinks.(s)
    done
  done;
  Array.iteri
    (fun oi (_, sg) ->
      let s = signal_index t sg in
      sinks.(s) <- sinks.(s) @ [ Po oi ])
    t.outputs;
  Array.init n (fun i ->
      let driver = if i < npis then Of_pi i else Of_inst (i - npis) in
      { driver; sinks = sinks.(i) })

let simulate t pi_vectors =
  if Array.length pi_vectors <> Array.length t.pi_names then
    invalid_arg "Mapped.simulate";
  let values = Array.make (Array.length t.instances) 0L in
  let read = function
    | Of_pi i -> pi_vectors.(i)
    | Of_inst i -> values.(i)
  in
  Array.iteri
    (fun idx inst ->
      let ins = Array.map read inst.fanins in
      values.(idx) <- Cals_cell.Cell.eval64 inst.cell ins)
    t.instances;
  Array.map (fun (_, s) -> read s) t.outputs

let sanitize name =
  String.map (fun c -> if c = '[' || c = ']' || c = '.' || c = '-' then '_' else c) name

let to_verilog ?(module_name = "mapped") t =
  Cals_telemetry.Span.with_ ~cat:"netlist"
    ~meta:(Printf.sprintf "%d cells" (Array.length t.instances))
    "netlist.verilog"
  @@ fun () ->
  let buf = Buffer.create 4096 in
  let pin_names = [| "a"; "b"; "c"; "d" |] in
  let wire = function
    | Of_pi i -> sanitize t.pi_names.(i)
    | Of_inst i -> Printf.sprintf "n%d" i
  in
  let pis =
    Array.to_list t.pi_names |> List.map sanitize |> String.concat ", "
  in
  let pos =
    Array.to_list t.outputs |> List.map (fun (n, _) -> sanitize n) |> String.concat ", "
  in
  Buffer.add_string buf
    (Printf.sprintf "module %s(%s%s%s);\n" module_name pis
       (if pis = "" || pos = "" then "" else ", ")
       pos);
  Array.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "  input %s;\n" (sanitize n)))
    t.pi_names;
  Array.iter
    (fun (n, _) -> Buffer.add_string buf (Printf.sprintf "  output %s;\n" (sanitize n)))
    t.outputs;
  Array.iteri
    (fun idx _ -> Buffer.add_string buf (Printf.sprintf "  wire n%d;\n" idx))
    t.instances;
  Array.iteri
    (fun idx inst ->
      let conns =
        Array.to_list
          (Array.mapi
             (fun pin s -> Printf.sprintf ".%s(%s)" pin_names.(pin) (wire s))
             inst.fanins)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s u%d (%s, .y(n%d));\n" inst.cell.Cals_cell.Cell.name idx
           (String.concat ", " conns) idx))
    t.instances;
  Array.iter
    (fun (n, s) ->
      Buffer.add_string buf (Printf.sprintf "  assign %s = %s;\n" (sanitize n) (wire s)))
    t.outputs;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf
