type geometry = {
  site_width : float;
  row_height : float;
}

type wire_model = {
  res_kohm_per_um : float;
  cap_pf_per_um : float;
  pitch_um : float;
}

type t = {
  name : string;
  geometry : geometry;
  wire : wire_model;
  cells : Cell.t list;
  by_name : (string, Cell.t) Hashtbl.t;
}

let make ~name geometry wire cells =
  let by_name = Hashtbl.create (List.length cells) in
  List.iter
    (fun (c : Cell.t) ->
      if Hashtbl.mem by_name c.Cell.name then
        invalid_arg ("Library.make: duplicate cell " ^ c.Cell.name);
      Hashtbl.add by_name c.Cell.name c)
    cells;
  if not (Hashtbl.mem by_name "INV") then invalid_arg "Library.make: missing INV";
  if not (Hashtbl.mem by_name "NAND2") then invalid_arg "Library.make: missing NAND2";
  { name; geometry; wire; cells; by_name }

let name t = t.name
let geometry t = t.geometry
let wire t = t.wire
let cells t = t.cells
let find t n = Hashtbl.find t.by_name n
let find_opt t n = Hashtbl.find_opt t.by_name n
let size t = List.length t.cells
