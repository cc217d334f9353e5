exception Parse_error of string

let fail line msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg))

let tokens s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse text =
  let ni = ref (-1) and no = ref (-1) in
  let ilb = ref None and ob = ref None in
  let products : (int * string * string) list ref = ref [] in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun raw ->
         incr lineno;
         let line =
           match String.index_opt raw '#' with
           | Some i -> String.sub raw 0 i
           | None -> raw
         in
         let line = String.trim line in
         if line <> "" then begin
           match tokens line with
           | ".i" :: [ n ] -> ni := int_of_string n
           | ".o" :: [ n ] -> no := int_of_string n
           | ".p" :: [ _ ] -> ()
           | ".ilb" :: names -> ilb := Some (Array.of_list names)
           | ".ob" :: names -> ob := Some (Array.of_list names)
           | ".type" :: [ ("fr" | "f") ] -> ()
           | ".type" :: [ t ] -> fail !lineno ("unsupported PLA type " ^ t)
           | [ ".e" ] | [ ".end" ] -> ()
           | [ inp; out ] -> products := (!lineno, inp, out) :: !products
           | _ -> fail !lineno ("cannot parse: " ^ line)
         end);
  if !ni <= 0 || !no <= 0 then raise (Parse_error "missing .i or .o");
  if !ni > Cube.max_vars then raise (Parse_error "too many inputs (limit 60)");
  let in_names =
    match !ilb with
    | Some names when Array.length names = !ni -> names
    | Some _ -> raise (Parse_error ".ilb arity mismatch")
    | None -> Array.init !ni (fun i -> Printf.sprintf "in%d" i)
  in
  let out_names =
    match !ob with
    | Some names when Array.length names = !no -> names
    | Some _ -> raise (Parse_error ".ob arity mismatch")
    | None -> Array.init !no (fun i -> Printf.sprintf "out%d" i)
  in
  let net = Network.create ~pi_names:in_names in
  let per_output = Array.make !no [] in
  List.iter
    (fun (line, inp, out) ->
      if String.length inp <> !ni then fail line "input column width mismatch";
      if String.length out <> !no then fail line "output column width mismatch";
      let lits = ref [] in
      String.iteri
        (fun i c ->
          match c with
          | '1' -> lits := (i, true) :: !lits
          | '0' -> lits := (i, false) :: !lits
          | '-' | '~' -> ()
          | _ -> fail line (Printf.sprintf "bad input character %c" c))
        inp;
      let cube = Cube.of_literals !lits in
      String.iteri
        (fun o c ->
          match c with
          | '1' | '4' -> per_output.(o) <- cube :: per_output.(o)
          | '0' | '-' | '~' | '2' | '3' -> ()
          | _ -> fail line (Printf.sprintf "bad output character %c" c))
        out)
    (List.rev !products);
  Array.iteri
    (fun o cubes ->
      let fanins = Array.init !ni (fun i -> Network.Pi i) in
      let id = Network.add_node net fanins (Sop.of_cubes cubes) in
      Network.set_output net out_names.(o) (Network.Node id))
    per_output;
  net

let print net =
  let pis = Network.pi_names net in
  let ni = Array.length pis in
  let outs = Network.outputs net in
  let no = Array.length outs in
  (* Collect each output's cubes over primary inputs. *)
  let rows : (Cube.t, bytes) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun o (_, s) ->
      let node =
        match s with
        | Network.Node i -> Network.node net i
        | Network.Pi _ -> invalid_arg "Pla.print: output wired to an input"
      in
      Array.iter
        (function
          | Network.Pi _ -> ()
          | Network.Node _ -> invalid_arg "Pla.print: network is not two-level")
        node.Network.fanins;
      List.iter
        (fun c ->
          let global =
            Cube.of_literals
              (List.map
                 (fun (v, ph) ->
                   match node.Network.fanins.(v) with
                   | Network.Pi i -> (i, ph)
                   | Network.Node _ -> assert false)
                 (Cube.literals c))
          in
          let mask =
            match Hashtbl.find_opt rows global with
            | Some m -> m
            | None ->
              let m = Bytes.make no '0' in
              Hashtbl.add rows global m;
              order := global :: !order;
              m
          in
          Bytes.set mask o '1')
        (Sop.cubes node.Network.sop))
    outs;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf ".i %d\n.o %d\n" ni no);
  Buffer.add_string buf
    (".ilb " ^ String.concat " " (Array.to_list pis) ^ "\n");
  Buffer.add_string buf
    (".ob " ^ String.concat " " (List.map fst (Array.to_list outs)) ^ "\n");
  Buffer.add_string buf (Printf.sprintf ".p %d\n" (Hashtbl.length rows));
  List.iter
    (fun cube ->
      let pat = Bytes.make ni '-' in
      List.iter
        (fun (v, ph) -> Bytes.set pat v (if ph then '1' else '0'))
        (Cube.literals cube);
      Buffer.add_string buf
        (Bytes.to_string pat ^ " " ^ Bytes.to_string (Hashtbl.find rows cube) ^ "\n"))
    (List.rev !order);
  Buffer.add_string buf ".e\n";
  Buffer.contents buf
