type signal =
  | Pi of int
  | Node of int

type node = {
  mutable fanins : signal array;
  mutable sop : Sop.t;
}

type t = {
  pis : string array;
  mutable nodes : node array;
  mutable n_nodes : int;
  mutable outs : (string * signal) array;
}

let dummy_node () = { fanins = [||]; sop = Sop.zero }
let create ~pi_names = { pis = pi_names; nodes = [||]; n_nodes = 0; outs = [||] }
let num_pis t = Array.length t.pis
let pi_names t = t.pis

let check_signal t = function
  | Pi i -> if i < 0 || i >= num_pis t then invalid_arg "Network: bad PI"
  | Node i -> if i < 0 || i >= t.n_nodes then invalid_arg "Network: bad node"

let add_node t fanins sop =
  Array.iter (check_signal t) fanins;
  let nf = Array.length fanins in
  List.iter
    (fun v -> if v >= nf then invalid_arg "Network.add_node: support exceeds fanins")
    (Sop.support_list sop);
  if t.n_nodes = Array.length t.nodes then begin
    let narr = Array.make (max 64 (2 * t.n_nodes)) (dummy_node ()) in
    Array.blit t.nodes 0 narr 0 t.n_nodes;
    t.nodes <- narr
  end;
  t.nodes.(t.n_nodes) <- { fanins; sop };
  t.n_nodes <- t.n_nodes + 1;
  t.n_nodes - 1

let node t i =
  if i < 0 || i >= t.n_nodes then invalid_arg "Network.node";
  t.nodes.(i)

let num_nodes t = t.n_nodes

let copy t =
  {
    pis = t.pis;
    nodes =
      Array.map (fun n -> { fanins = Array.copy n.fanins; sop = n.sop }) t.nodes;
    n_nodes = t.n_nodes;
    outs = Array.copy t.outs;
  }

let set_output t name s =
  check_signal t s;
  t.outs <- Array.append t.outs [| (name, s) |]

let outputs t = t.outs

let live_nodes t =
  let live = Array.make t.n_nodes false in
  let rec visit = function
    | Pi _ -> ()
    | Node i ->
      if not live.(i) then begin
        live.(i) <- true;
        Array.iter visit (node t i).fanins
      end
  in
  Array.iter (fun (_, s) -> visit s) t.outs;
  live

let topo_order t =
  let live = live_nodes t in
  let state = Array.make t.n_nodes 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let order = ref [] in
  let rec visit i =
    match state.(i) with
    | 2 -> ()
    | 1 -> failwith "Network.topo_order: combinational cycle"
    | _ ->
      state.(i) <- 1;
      Array.iter
        (function Node j -> visit j | Pi _ -> ())
        (node t i).fanins;
      state.(i) <- 2;
      order := i :: !order
  in
  for i = 0 to t.n_nodes - 1 do
    if live.(i) then visit i
  done;
  List.rev !order

let fanout_table t =
  let live = live_nodes t in
  let tbl = Hashtbl.create (t.n_nodes * 2) in
  for i = 0 to t.n_nodes - 1 do
    if live.(i) then Hashtbl.replace tbl i []
  done;
  for i = t.n_nodes - 1 downto 0 do
    if live.(i) then
      Array.iter
        (function
          | Node j ->
            Hashtbl.replace tbl j (i :: Option.value ~default:[] (Hashtbl.find_opt tbl j))
          | Pi _ -> ())
        (node t i).fanins
  done;
  tbl

let num_literals t =
  let live = live_nodes t in
  let acc = ref 0 in
  for i = 0 to t.n_nodes - 1 do
    if live.(i) then acc := !acc + Sop.num_literals (node t i).sop
  done;
  !acc

let num_live_nodes t =
  Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 (live_nodes t)

let normalize_fanins t i =
  let n = node t i in
  let used = Sop.support_list n.sop in
  let keep = Array.of_list used in
  let remap = Hashtbl.create 8 in
  Array.iteri (fun new_v old_v -> Hashtbl.add remap old_v new_v) keep;
  let fanins = Array.map (fun v -> n.fanins.(v)) keep in
  let sop = Sop.map_vars (fun v -> Hashtbl.find remap v) n.sop in
  n.fanins <- fanins;
  n.sop <- sop

(* Replace every use of node id [i] (as a signal) according to [subst]:
   either an alias signal or a constant. *)
type replacement =
  | Alias of signal
  | Constant of bool

let apply_replacement t victim repl =
  let rewrite_node i n =
    match repl with
    | Alias s ->
      n.fanins <-
        Array.map (fun f -> if f = Node victim then s else f) n.fanins
    | Constant b ->
      let touched = ref false in
      Array.iteri
        (fun v f ->
          if f = Node victim then begin
            n.sop <- Sop.cofactor n.sop v b;
            touched := true
          end)
        n.fanins;
      (* The cofactor removed [victim] from the SOP support but not from
         the fanin array; prune it, or the victim stays live through the
         stale reference and the sweep fixpoint never converges. *)
      if !touched then normalize_fanins t i
  in
  for i = 0 to t.n_nodes - 1 do
    if i <> victim then rewrite_node i (node t i)
  done;
  (match repl with
  | Alias s ->
    t.outs <- Array.map (fun (nm, o) -> (nm, if o = Node victim then s else o)) t.outs
  | Constant _ -> ());
  ()

let sweep t =
  (* Iterate constant propagation and buffer collapsing to a fixed point,
     then compact the node array. *)
  let changed = ref true in
  while !changed do
    changed := false;
    let live = live_nodes t in
    for i = 0 to t.n_nodes - 1 do
      if live.(i) then begin
        let n = node t i in
        if Sop.is_zero n.sop || Sop.is_one n.sop then begin
          let b = Sop.is_one n.sop in
          let used_by_output =
            Array.exists (fun (_, s) -> s = Node i) t.outs
          in
          if not used_by_output then begin
            apply_replacement t i (Constant b);
            changed := true
          end
        end
        else
          match Sop.cubes n.sop with
          | [ c ] -> (
            match Cube.literals c with
            | [ (v, true) ] ->
              (* Pure buffer: alias the fanin. *)
              apply_replacement t i (Alias n.fanins.(v));
              changed := true
            | [ _ ] | [] | _ :: _ -> ())
          | [] | _ :: _ -> ()
      end
    done
  done;
  (* Compact: drop dead nodes and remap ids. *)
  let live = live_nodes t in
  let remap = Array.make t.n_nodes (-1) in
  let next = ref 0 in
  for i = 0 to t.n_nodes - 1 do
    if live.(i) then begin
      remap.(i) <- !next;
      incr next
    end
  done;
  let fix = function
    | Pi _ as s -> s
    | Node i ->
      if remap.(i) < 0 then failwith "Network.sweep: dangling reference"
      else Node remap.(i)
  in
  let narr = Array.make (max 1 !next) (dummy_node ()) in
  for i = 0 to t.n_nodes - 1 do
    if live.(i) then begin
      let n = node t i in
      narr.(remap.(i)) <- { fanins = Array.map fix n.fanins; sop = n.sop }
    end
  done;
  t.nodes <- narr;
  t.n_nodes <- !next;
  t.outs <- Array.map (fun (nm, s) -> (nm, fix s)) t.outs

let simulate t stimulus =
  if Array.length stimulus <> num_pis t then invalid_arg "Network.simulate";
  let values = Array.make (max 1 t.n_nodes) 0L in
  let read = function Pi i -> stimulus.(i) | Node i -> values.(i) in
  List.iter
    (fun i ->
      let n = node t i in
      let ins = Array.map read n.fanins in
      values.(i) <- Sop.eval64 n.sop ins)
    (topo_order t);
  Array.map (fun (_, s) -> read s) t.outs

let random_vectors rng t =
  Array.init (num_pis t) (fun _ -> Cals_util.Rng.bits64 rng)

let validate t =
  try
    for i = 0 to t.n_nodes - 1 do
      let n = node t i in
      Array.iter (check_signal t) n.fanins;
      List.iter
        (fun v ->
          if v >= Array.length n.fanins then
            failwith (Printf.sprintf "node %d: support exceeds fanins" i))
        (Sop.support_list n.sop)
    done;
    ignore (topo_order t);
    Ok ()
  with
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error msg
