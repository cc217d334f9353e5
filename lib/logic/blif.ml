exception Parse_error of string

let fail line msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg))

(* Join continuation lines, strip comments, split into directive groups. *)
let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let rec join acc pending lineno = function
    | [] ->
      let acc = match pending with Some (l, s) -> (l, s) :: acc | None -> acc in
      List.rev acc
    | line :: rest ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let line = String.trim line in
      let lineno = lineno + 1 in
      if line = "" then
        let acc = match pending with Some (l, s) -> (l, s) :: acc | None -> acc in
        join acc None lineno rest
      else if String.length line > 0 && line.[String.length line - 1] = '\\' then begin
        let chunk = String.sub line 0 (String.length line - 1) in
        match pending with
        | Some (l, s) -> join acc (Some (l, s ^ " " ^ chunk)) lineno rest
        | None -> join acc (Some (lineno, chunk)) lineno rest
      end
      else begin
        match pending with
        | Some (l, s) -> join ((l, s ^ " " ^ line) :: acc) None lineno rest
        | None -> join ((lineno, line) :: acc) None lineno rest
      end
  in
  join [] None 0 raw

let tokens s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

type names_def = {
  line : int;
  inputs : string list;
  output : string;
  mutable covers : (string * char) list;  (** input pattern, output value *)
}

let parse text =
  let lines = logical_lines text in
  let inputs = ref [] and outputs = ref [] in
  let defs : (string, names_def) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let current = ref None in
  let finish () = current := None in
  List.iter
    (fun (lineno, line) ->
      match tokens line with
      | [] -> ()
      | tok :: rest -> (
        if String.length tok > 0 && tok.[0] = '.' then begin
          finish ();
          match tok with
          | ".model" -> ()
          | ".inputs" -> inputs := !inputs @ rest
          | ".outputs" -> outputs := !outputs @ rest
          | ".names" -> (
            match List.rev rest with
            | [] -> fail lineno ".names needs at least an output"
            | out :: rev_ins ->
              if Hashtbl.mem defs out then fail lineno ("redefinition of " ^ out);
              let def =
                { line = lineno; inputs = List.rev rev_ins; output = out; covers = [] }
              in
              Hashtbl.add defs out def;
              order := out :: !order;
              current := Some def)
          | ".end" -> ()
          | ".latch" | ".subckt" | ".gate" | ".mlatch" ->
            fail lineno (tok ^ " is not supported (combinational BLIF only)")
          | ".exdc" -> fail lineno ".exdc is not supported"
          | _ -> fail lineno ("unknown directive " ^ tok)
        end
        else begin
          match !current with
          | None -> fail lineno "cover line outside .names"
          | Some def ->
            let pattern, value =
              match tok :: rest with
              | [ v ] when def.inputs = [] -> ("", v)
              | [ p; v ] -> (p, v)
              | _ -> fail lineno "malformed cover line"
            in
            if String.length value <> 1 || (value <> "0" && value <> "1") then
              fail lineno "cover output must be 0 or 1";
            if String.length pattern <> List.length def.inputs then
              fail lineno "cover width does not match .names inputs";
            def.covers <- (pattern, value.[0]) :: def.covers
        end))
    lines;
  let inputs = !inputs and outputs = !outputs in
  let net = Network.create ~pi_names:(Array.of_list inputs) in
  let pi_index = Hashtbl.create 64 in
  List.iteri (fun i n -> Hashtbl.add pi_index n i) inputs;
  let built : (string, Network.signal) Hashtbl.t = Hashtbl.create 256 in
  let building : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec signal_of name =
    match Hashtbl.find_opt built name with
    | Some s -> s
    | None -> (
      match Hashtbl.find_opt pi_index name with
      | Some i ->
        let s = Network.Pi i in
        Hashtbl.add built name s;
        s
      | None -> (
        match Hashtbl.find_opt defs name with
        | None -> raise (Parse_error ("undefined signal " ^ name))
        | Some def ->
          if Hashtbl.mem building name then
            fail def.line ("combinational cycle through " ^ name);
          Hashtbl.add building name ();
          let s = build_def def in
          Hashtbl.remove building name;
          Hashtbl.add built name s;
          s))
  and build_def def =
    let fanins = Array.of_list (List.map signal_of def.inputs) in
    if Array.length fanins > Cube.max_vars then
      fail def.line "node has too many fanins (limit 60)";
    let covers = List.rev def.covers in
    let values = List.map snd covers in
    (match List.sort_uniq compare values with
    | [] | [ _ ] -> ()
    | _ -> fail def.line "mixed on-set and off-set cover");
    let cube_of_pattern p =
      let lits = ref [] in
      String.iteri
        (fun i c ->
          match c with
          | '1' -> lits := (i, true) :: !lits
          | '0' -> lits := (i, false) :: !lits
          | '-' -> ()
          | _ -> fail def.line (Printf.sprintf "bad cover character %c" c))
        p;
      Cube.of_literals !lits
    in
    let sop = Sop.of_cubes (List.map (fun (p, _) -> cube_of_pattern p) covers) in
    let sop =
      match values with
      | '0' :: _ -> (
        match Sop.complement ~max_cubes:4096 sop with
        | Some c -> c
        | None -> fail def.line "off-set cover too large to complement")
      | _ -> sop
    in
    let id = Network.add_node net fanins sop in
    Network.Node id
  in
  List.iter
    (fun out -> Network.set_output net out (signal_of out))
    outputs;
  net

let load path =
  match
    let ic = open_in path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    if Filename.check_suffix path ".pla" then Pla.parse text else parse text
  with
  | net -> Ok net
  | exception (Sys_error reason | Parse_error reason | Pla.Parse_error reason)
    ->
    (* [Sys_error] already starts with the path; say it once. *)
    let prefix = path ^ ": " in
    if String.starts_with ~prefix reason then
      Error
        (String.sub reason (String.length prefix)
           (String.length reason - String.length prefix))
    else Error reason

let print ?(model = "network") net =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (".model " ^ model ^ "\n");
  let pis = Network.pi_names net in
  Buffer.add_string buf ".inputs";
  Array.iter (fun n -> Buffer.add_string buf (" " ^ n)) pis;
  Buffer.add_char buf '\n';
  Buffer.add_string buf ".outputs";
  Array.iter (fun (n, _) -> Buffer.add_string buf (" " ^ n)) (Network.outputs net);
  Buffer.add_char buf '\n';
  let sig_name = function
    | Network.Pi i -> pis.(i)
    | Network.Node i -> Printf.sprintf "n%d" i
  in
  let emit_names out_name fanins sop =
    Buffer.add_string buf ".names";
    Array.iter (fun s -> Buffer.add_string buf (" " ^ sig_name s)) fanins;
    Buffer.add_string buf (" " ^ out_name ^ "\n");
    let nf = Array.length fanins in
    List.iter
      (fun c ->
        let pat = Bytes.make nf '-' in
        List.iter
          (fun (v, ph) -> Bytes.set pat v (if ph then '1' else '0'))
          (Cube.literals c);
        Buffer.add_string buf (Bytes.to_string pat ^ " 1\n"))
      (Sop.cubes sop)
  in
  List.iter
    (fun i ->
      let n = Network.node net i in
      emit_names (Printf.sprintf "n%d" i) n.Network.fanins n.Network.sop)
    (Network.topo_order net);
  Array.iter
    (fun (name, s) ->
      if name <> sig_name s then begin
        (* Output buffer aliasing the internal signal. *)
        Buffer.add_string buf (Printf.sprintf ".names %s %s\n1 1\n" (sig_name s) name)
      end)
    (Network.outputs net);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf
