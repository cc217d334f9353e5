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

type net_table = {
  first : int array;
  pins : int array;
}

let signal_index t = function
  | Of_pi i -> i
  | Of_inst i -> Array.length t.pi_names + i

(* Count each net's sinks, lay the nets out (a driver slot before any
   sinks), then fill the sinks in the order they are listed. *)
let net_table t =
  let npis = Array.length t.pi_names and ncells = Array.length t.instances in
  let n = npis + ncells in
  let sinks = Array.make n 0 in
  let count s = sinks.(signal_index t s) <- sinks.(signal_index t s) + 1 in
  Array.iter (fun inst -> Array.iter count inst.fanins) t.instances;
  Array.iter (fun (_, s) -> count s) t.outputs;
  let first = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    first.(s + 1) <- first.(s) + (if sinks.(s) = 0 then 0 else sinks.(s) + 1)
  done;
  let pins = Array.make first.(n) 0 in
  let next = Array.make n 0 in
  for s = 0 to n - 1 do
    if sinks.(s) > 0 then begin
      pins.(first.(s)) <- (if s < npis then ncells + s else s - npis);
      next.(s) <- first.(s) + 1
    end
  done;
  let push s pin =
    let s = signal_index t s in
    pins.(next.(s)) <- pin;
    next.(s) <- next.(s) + 1
  in
  Array.iteri (fun i inst -> Array.iter (fun s -> push s i) inst.fanins) t.instances;
  Array.iteri (fun o (_, s) -> push s (ncells + npis + o)) t.outputs;
  { first; pins }

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
