module Subject = Cals_netlist.Subject

type strategy =
  | Dagon
  | Cone
  | Pdp

type t = {
  father : int option array;
  live : bool array;
  roots : int list;
}

let is_gate subject v =
  match subject.Subject.gates.(v) with
  | Subject.Pi _ -> false
  | Subject.Inv _ | Subject.Nand2 _ -> true

let run strategy subject ~positions ~distance =
  let n = Subject.num_nodes subject in
  let father = Array.make n None in
  let live = Array.make n false in
  let fanouts = Subject.fanouts subject in
  (* Roots: distinct primary-output drivers that are gates, in output
     order. PIs wired straight to an output need no tree. *)
  let roots =
    Array.to_list subject.Subject.outputs
    |> List.map snd
    |> List.filter (is_gate subject)
    |> List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) []
    |> List.rev
  in
  (* Liveness first, so father choices only consider live fanouts. *)
  let rec mark v =
    if not live.(v) then begin
      live.(v) <- true;
      List.iter mark (Subject.fanins subject.Subject.gates.(v))
    end
  in
  Array.iter (fun (_, v) -> mark v) subject.Subject.outputs;
  let is_root = Array.make n false in
  List.iter (fun r -> is_root.(r) <- true) roots;
  let out_refs = Subject.output_refs subject in
  let choose_father w dfs_parent =
    let parents = List.filter (fun u -> live.(u)) fanouts.(w) in
    match strategy with
    | Dagon -> (
      match parents with
      | [ u ] when out_refs.(w) = 0 -> Some u
      | [] | [ _ ] | _ :: _ -> None)
    | Cone -> Some dfs_parent
    | Pdp ->
      List.fold_left
        (fun best u ->
          let d = Cals_util.Geom.distance distance positions.(u) positions.(w) in
          match best with
          | Some (_, bd) when bd <= d -> best
          | Some _ | None -> Some (u, d))
        None parents
      |> Option.map fst
  in
  let visited = Array.make n false in
  let rec dfs v =
    List.iter
      (fun w ->
        if is_gate subject w && (not visited.(w)) && not is_root.(w) then begin
          visited.(w) <- true;
          father.(w) <- choose_father w v;
          dfs w
        end)
      (Subject.fanins subject.Subject.gates.(v))
  in
  List.iter
    (fun r ->
      if not visited.(r) then begin
        visited.(r) <- true;
        dfs r
      end)
    roots;
  (* Every fatherless live gate heads a tree — primary-output drivers plus
     the multi-fanout split points of the chosen strategy. *)
  let all_roots = ref [] in
  for v = n - 1 downto 0 do
    if live.(v) && is_gate subject v && father.(v) = None then
      all_roots := v :: !all_roots
  done;
  { father; live; roots = !all_roots }
