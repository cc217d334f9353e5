(* Reader for the structural Verilog that [Mapped.to_verilog] writes, so
   the netlist a serve job left on disk can be simulated and miter-checked
   against its source network. It accepts exactly that subset: one module
   of [input]/[output]/[wire] declarations, one cell instance per line
   with named pins [a]..[d] and output [y], and [assign] statements for
   the primary outputs. Instance seeds are not in the file; they are set
   to the origin, which simulation ignores. *)

module Mapped = Cals_netlist.Mapped

let fail fmt = Printf.ksprintf failwith fmt

let strip_suffix ~suffix s =
  let s = String.trim s in
  if String.ends_with ~suffix s then
    String.trim (String.sub s 0 (String.length s - String.length suffix))
  else fail "expected %S at the end of %S" suffix s

let read ~library text =
  let lines =
    String.split_on_char '\n' text |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let pis = ref [] and pos = ref [] and insts = ref [] and assigns = ref [] in
  let word_after prefix l =
    strip_suffix ~suffix:";"
      (String.sub l (String.length prefix)
         (String.length l - String.length prefix))
  in
  List.iter
    (fun l ->
      if String.starts_with ~prefix:"module " l || l = "endmodule"
         || String.starts_with ~prefix:"wire " l
      then ()
      else if String.starts_with ~prefix:"input " l then
        pis := word_after "input " l :: !pis
      else if String.starts_with ~prefix:"output " l then
        pos := word_after "output " l :: !pos
      else if String.starts_with ~prefix:"assign " l then
        match String.split_on_char '=' (word_after "assign " l) with
        | [ lhs; rhs ] -> assigns := (String.trim lhs, String.trim rhs) :: !assigns
        | _ -> fail "malformed assign %S" l
      else
        (* CELL uN (.a(x), .b(y), .y(nN)); *)
        match String.index_opt l '(' with
        | None -> fail "unrecognized line %S" l
        | Some open_paren ->
          let head = String.sub l 0 open_paren in
          let cell_name =
            match String.split_on_char ' ' (String.trim head) with
            | cell :: _ -> cell
            | [] -> fail "missing cell name in %S" l
          in
          let body =
            strip_suffix ~suffix:");"
              (String.sub l (open_paren + 1)
                 (String.length l - open_paren - 1))
          in
          let conns =
            String.split_on_char ',' body
            |> List.map (fun c ->
                   let c = String.trim c in
                   match String.index_opt c '(' with
                   | Some i when c.[0] = '.' ->
                     ( String.sub c 1 (i - 1),
                       strip_suffix ~suffix:")"
                         (String.sub c (i + 1) (String.length c - i - 1)) )
                   | _ -> fail "malformed pin connection %S" c)
          in
          insts := (cell_name, conns) :: !insts)
    lines;
  let pi_names = Array.of_list (List.rev !pis) in
  let insts = Array.of_list (List.rev !insts) in
  let signal_of = Hashtbl.create (Array.length insts + Array.length pi_names) in
  Array.iteri (fun i n -> Hashtbl.replace signal_of n (Mapped.Of_pi i)) pi_names;
  Array.iteri
    (fun i (_, conns) ->
      match List.assoc_opt "y" conns with
      | Some out -> Hashtbl.replace signal_of out (Mapped.Of_inst i)
      | None -> fail "instance %d has no output pin" i)
    insts;
  let lookup name =
    match Hashtbl.find_opt signal_of name with
    | Some s -> s
    | None -> fail "undriven signal %S" name
  in
  let instances =
    Array.map
      (fun (cell_name, conns) ->
        let cell = Cals_cell.Library.find library cell_name in
        let fanins =
          List.filter (fun (pin, _) -> pin <> "y") conns
          |> List.map (fun (_, net) -> lookup net)
          |> Array.of_list
        in
        { Mapped.cell; fanins; seed = Cals_util.Geom.point 0.0 0.0 })
      insts
  in
  let outputs =
    List.rev_map
      (fun po ->
        match List.assoc_opt po !assigns with
        | Some net -> (po, lookup net)
        | None -> fail "output %S is never assigned" po)
      !pos
    |> Array.of_list
  in
  Mapped.make ~pi_names ~instances ~outputs
