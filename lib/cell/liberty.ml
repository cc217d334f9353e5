let pin_names = [| "a"; "b"; "c"; "d"; "e"; "f" |]

(* Liberty boolean expression from the first pattern tree: NAND at the root
   prints as a negated product, inverters as '!'. *)
let function_of_cell (cell : Cell.t) =
  let rec expr = function
    | Pattern.Var i -> pin_names.(i)
    | Pattern.Inv (Pattern.Nand (p, q)) ->
      (* AND: double negation folds away. *)
      Printf.sprintf "(%s %s)" (atom p) (atom q)
    | Pattern.Inv p -> "!" ^ atom p
    | Pattern.Nand (p, q) -> Printf.sprintf "!(%s %s)" (atom p) (atom q)
  and atom = function
    | Pattern.Var i -> pin_names.(i)
    | Pattern.Inv _ as p -> expr p
    | Pattern.Nand _ as p -> "(" ^ expr p ^ ")"
  in
  match cell.Cell.patterns with
  | [] -> "0"
  | p :: _ -> expr p

let print library =
  Cals_telemetry.Span.with_ ~cat:"cell" ~meta:(Library.name library)
    "cell.liberty"
  @@ fun () ->
  let buf = Buffer.create 8192 in
  let geometry = Library.geometry library in
  let wire = Library.wire library in
  Buffer.add_string buf
    (Printf.sprintf "library (%s) {\n" (Library.name library));
  Buffer.add_string buf "  delay_model : generic_cmos;\n";
  Buffer.add_string buf "  time_unit : \"1ns\";\n";
  Buffer.add_string buf "  capacitive_load_unit (1, pf);\n";
  Buffer.add_string buf
    (Printf.sprintf "  /* site %.2fum x row %.2fum; wire %.4f kohm/um, %.5f pf/um */\n"
       geometry.Library.site_width geometry.Library.row_height
       wire.Library.res_kohm_per_um wire.Library.cap_pf_per_um);
  List.iter
    (fun (cell : Cell.t) ->
      Buffer.add_string buf (Printf.sprintf "  cell (%s) {\n" cell.Cell.name);
      Buffer.add_string buf (Printf.sprintf "    area : %.4f;\n" cell.Cell.area);
      let arity = Cell.num_inputs cell in
      for i = 0 to arity - 1 do
        Buffer.add_string buf (Printf.sprintf "    pin (%s) {\n" pin_names.(i));
        Buffer.add_string buf "      direction : input;\n";
        Buffer.add_string buf
          (Printf.sprintf "      capacitance : %.4f;\n" cell.Cell.input_cap_pf);
        Buffer.add_string buf "    }\n"
      done;
      Buffer.add_string buf "    pin (y) {\n";
      Buffer.add_string buf "      direction : output;\n";
      Buffer.add_string buf
        (Printf.sprintf "      function : \"%s\";\n" (function_of_cell cell));
      Buffer.add_string buf
        (Printf.sprintf
           "      timing () { intrinsic_rise : %.4f; intrinsic_fall : %.4f; \
            rise_resistance : %.4f; fall_resistance : %.4f; }\n"
           cell.Cell.intrinsic_ns cell.Cell.intrinsic_ns cell.Cell.drive_kohm
           cell.Cell.drive_kohm);
      Buffer.add_string buf "    }\n";
      Buffer.add_string buf "  }\n")
    (Library.cells library);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
