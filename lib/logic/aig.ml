module Subject = Cals_netlist.Subject

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

let const_false = 0
let const_true = 1
let lit node complemented = (node lsl 1) lor (if complemented then 1 else 0)
let lit_node l = l lsr 1
let lit_compl l = l land 1 = 1
let neg l = l lxor 1

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

(* Node 0 is the constant-false source; nodes 1..num_pis the PIs; AND
   nodes follow. [fan0]/[fan1] hold fanin literals (-1 below the first
   AND id). The strash table keys the ordered fanin pair; [table = None]
   disables hash-consing (the measurement mode of [create ~strash:false]).
   [two_level] arms the rewrite rules inside [mk_and] during a Rewrite
   rebuild. *)
type t = {
  names : string array;
  mutable fan0 : int array;
  mutable fan1 : int array;
  mutable levels : int array;
  mutable n : int;
  table : (int, int) Hashtbl.t option;
  mutable two_level : bool;
  mutable outs : (string * int) array;
}

let num_pis t = Array.length t.names
let pi_names t = t.names
let first_and t = num_pis t + 1
let is_and t id = id >= first_and t

let create ?(strash = true) ~pi_names () =
  let base = Array.length pi_names + 1 in
  let cap = max 16 (2 * base) in
  let fan0 = Array.make cap (-1) and fan1 = Array.make cap (-1) in
  let levels = Array.make cap 0 in
  {
    names = pi_names;
    fan0;
    fan1;
    levels;
    n = base;
    table = (if strash then Some (Hashtbl.create 256) else None);
    two_level = false;
    outs = [||];
  }

let pi t i =
  if i < 0 || i >= num_pis t then invalid_arg "Aig.pi: index out of range";
  lit (i + 1) false

let level_of t l =
  let id = lit_node l in
  if is_and t id then t.levels.(id) else 0

let grow t =
  let cap = Array.length t.fan0 in
  if t.n >= cap then begin
    let ncap = 2 * cap in
    let f0 = Array.make ncap (-1) and f1 = Array.make ncap (-1) in
    let lv = Array.make ncap 0 in
    Array.blit t.fan0 0 f0 0 cap;
    Array.blit t.fan1 0 f1 0 cap;
    Array.blit t.levels 0 lv 0 cap;
    t.fan0 <- f0;
    t.fan1 <- f1;
    t.levels <- lv
  end

(* Ordered pair key; literals stay far below 2^31 for any network this
   library builds. *)
let pair_key a b = (a lsl 31) lor b

let alloc t a b =
  grow t;
  let id = t.n in
  t.fan0.(id) <- a;
  t.fan1.(id) <- b;
  t.levels.(id) <- 1 + max (level_of t a) (level_of t b);
  t.n <- id + 1;
  (match t.table with
  | Some tbl -> Hashtbl.replace tbl (pair_key a b) id
  | None -> ());
  lit id false

(* Two-level structural rules: inspect AND fanins one level down before
   allocating. Each rule rewrites to literals whose node-id sum is
   strictly smaller, so the mutual recursion with [mk_and] terminates. *)
let rec two_level_rule t a b =
  let fanins l =
    let id = lit_node l in
    if is_and t id then Some (t.fan0.(id), t.fan1.(id)) else None
  in
  match (fanins a, fanins b) with
  | Some (x, y), _ when not (lit_compl a) && (b = x || b = y) ->
    (* Absorption: (x AND y) AND x = x AND y. *)
    Some a
  | Some (x, y), _ when not (lit_compl a) && (b = neg x || b = neg y) ->
    (* Contradiction one level down. *)
    Some const_false
  | _, Some (u, v) when not (lit_compl b) && (a = u || a = v) -> Some b
  | _, Some (u, v) when not (lit_compl b) && (a = neg u || a = neg v) ->
    Some const_false
  | Some (x, y), _ when lit_compl a && (b = x || b = y) ->
    (* Substitution: x AND NOT (x AND y) = x AND NOT y. *)
    Some (mk_and t b (neg (if b = x then y else x)))
  | Some (x, y), _ when lit_compl a && (b = neg x || b = neg y) ->
    (* NOT x implies NOT (x AND y). *)
    Some b
  | _, Some (u, v) when lit_compl b && (a = u || a = v) ->
    Some (mk_and t a (neg (if a = u then v else u)))
  | _, Some (u, v) when lit_compl b && (a = neg u || a = neg v) -> Some a
  | Some (x, y), Some (u, v)
    when (not (lit_compl a)) && not (lit_compl b) ->
    (* Shared-variable contradiction: (x AND y) AND (x AND NOT y) = 0. *)
    if x = neg u || x = neg v || y = neg u || y = neg v then
      Some const_false
    else None
  | Some (x, y), Some (u, v) when lit_compl a && lit_compl b ->
    (* OR-collapse: NOT (x AND y) AND NOT (x AND NOT y) = NOT x. *)
    if x = u && y = neg v then Some (neg x)
    else if x = v && y = neg u then Some (neg x)
    else if y = u && x = neg v then Some (neg y)
    else if y = v && x = neg u then Some (neg y)
    else None
  | _ -> None

and mk_and t a b =
  if a >= 2 * t.n || b >= 2 * t.n || a < 0 || b < 0 then
    invalid_arg "Aig.mk_and: literal out of range";
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = const_false then const_false
  else if a = const_true then b
  else if a = b then a
  else if a = neg b then const_false
  else
    let rewritten = if t.two_level then two_level_rule t a b else None in
    match rewritten with
    | Some l -> l
    | None -> (
      match t.table with
      | None -> alloc t a b
      | Some tbl -> (
        match Hashtbl.find_opt tbl (pair_key a b) with
        | Some id -> lit id false
        | None -> alloc t a b))

let set_output t name l =
  let replaced = ref false in
  let outs =
    Array.map
      (fun (n, v) ->
        if n = name then begin
          replaced := true;
          (n, l)
        end
        else (n, v))
      t.outs
  in
  t.outs <- (if !replaced then outs else Array.append t.outs [| (name, l) |])

let outputs t = t.outs
let num_nodes t = t.n - first_and t

(* ------------------------------------------------------------------ *)
(* Liveness and statistics                                             *)
(* ------------------------------------------------------------------ *)

(* Iterative mark from the outputs; fanin ids are strictly smaller than
   the node's, so a stack never revisits marked nodes. *)
let live_marks t =
  let live = Array.make t.n false in
  let stack = ref [] in
  let push l =
    let id = lit_node l in
    if is_and t id && not live.(id) then begin
      live.(id) <- true;
      stack := id :: !stack
    end
  in
  Array.iter (fun (_, l) -> push l) t.outs;
  let rec drain () =
    match !stack with
    | [] -> ()
    | id :: rest ->
      stack := rest;
      push t.fan0.(id);
      push t.fan1.(id);
      drain ()
  in
  drain ();
  live

let num_ands t =
  let live = live_marks t in
  let c = ref 0 in
  for id = first_and t to t.n - 1 do
    if live.(id) then incr c
  done;
  !c

let depth t =
  Array.fold_left (fun acc (_, l) -> max acc (level_of t l)) 0 t.outs

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)
(* ------------------------------------------------------------------ *)

let simulate t stimulus =
  if Array.length stimulus <> num_pis t then
    invalid_arg "Aig.simulate: stimulus arity mismatch";
  let vals = Array.make t.n 0L in
  Array.blit stimulus 0 vals 1 (num_pis t);
  let word l =
    let v = vals.(lit_node l) in
    if lit_compl l then Int64.lognot v else v
  in
  for id = first_and t to t.n - 1 do
    vals.(id) <- Int64.logand (word t.fan0.(id)) (word t.fan1.(id))
  done;
  Array.map (fun (_, l) -> word l) t.outs

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

(* Balanced pairwise AND keeps conversion depth logarithmic in the
   factored-form width. *)
let and_reduce t = function
  | [] -> const_true
  | lits ->
    let rec go = function
      | [ x ] -> x
      | xs ->
        let rec pair = function
          | a :: b :: rest -> mk_and t a b :: pair rest
          | ([ _ ] | []) as tail -> tail
        in
        go (pair xs)
    in
    go lits

let of_network ?strash net =
  let t = create ?strash ~pi_names:(Network.pi_names net) () in
  let node_lit = Hashtbl.create (Network.num_nodes net) in
  let signal_lit = function
    | Network.Pi i -> pi t i
    | Network.Node i -> Hashtbl.find node_lit i
  in
  let build_node i =
    let n = Network.node net i in
    let rec build = function
      | Factor.Const v -> if v then const_true else const_false
      | Factor.Lit (v, ph) ->
        let l = signal_lit n.Network.fanins.(v) in
        if ph then l else neg l
      | Factor.And fs -> and_reduce t (List.map build fs)
      | Factor.Or fs ->
        neg (and_reduce t (List.map (fun f -> neg (build f)) fs))
    in
    Hashtbl.replace node_lit i (build (Factor.factor n.Network.sop))
  in
  List.iter build_node (Network.topo_order net);
  Array.iter
    (fun (name, s) -> set_output t name (signal_lit s))
    (Network.outputs net);
  t

let to_network t =
  let net = Network.create ~pi_names:t.names in
  let live = live_marks t in
  let node_sig = Array.make t.n (Network.Pi 0) in
  for i = 0 to num_pis t - 1 do
    node_sig.(i + 1) <- Network.Pi i
  done;
  let signal_of_positive l = node_sig.(lit_node l) in
  for id = first_and t to t.n - 1 do
    if live.(id) then begin
      let f0 = t.fan0.(id) and f1 = t.fan1.(id) in
      let sop =
        Sop.of_cubes
          [ Cube.of_literals
              [ (0, not (lit_compl f0)); (1, not (lit_compl f1)) ] ]
      in
      let nid =
        Network.add_node net
          [| signal_of_positive f0; signal_of_positive f1 |]
          sop
      in
      node_sig.(id) <- Network.Node nid
    end
  done;
  (* Constant and complemented outputs need a node to carry them; share
     one per distinct literal. *)
  let extra = Hashtbl.create 8 in
  let output_signal l =
    if l = const_false || l = const_true || lit_compl l then (
      match Hashtbl.find_opt extra l with
      | Some s -> s
      | None ->
        let s =
          if l = const_false then
            Network.Node (Network.add_node net [||] Sop.zero)
          else if l = const_true then
            Network.Node (Network.add_node net [||] Sop.one)
          else
            Network.Node
              (Network.add_node net
                 [| signal_of_positive l |]
                 (Sop.of_cubes [ Cube.lit 0 false ]))
        in
        Hashtbl.replace extra l s;
        s)
    else signal_of_positive l
  in
  Array.iter (fun (name, l) -> Network.set_output net name (output_signal l)) t.outs;
  net

let to_subject t =
  let b = Subject.builder () in
  let pis = Array.map (fun name -> Subject.add_pi b name) t.names in
  (* One subject node per materialized literal: AND nodes canonically
     carry their complemented (NAND) value, so complemented edges are
     free and only positive references pay an inverter. *)
  let memo = Hashtbl.create (2 * t.n) in
  let rec signal_of l =
    match Hashtbl.find_opt memo l with
    | Some s -> s
    | None ->
      let s =
        if l = const_false then Subject.add_const b false
        else if l = const_true then Subject.add_const b true
        else
          let id = lit_node l in
          if not (is_and t id) then
            let p = pis.(id - 1) in
            if lit_compl l then Subject.add_inv b p else p
          else
            let nand =
              Subject.add_nand b
                (signal_of t.fan0.(id))
                (signal_of t.fan1.(id))
            in
            if lit_compl l then nand else Subject.add_inv b nand
      in
      Hashtbl.replace memo l s;
      s
  in
  Array.iter (fun (name, l) -> Subject.set_output b name (signal_of l)) t.outs;
  Subject.freeze b

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type pass = Strash | Rewrite | Balance | Dce | Cse | Constprop

let all_passes = [ Strash; Dce; Cse; Constprop; Balance; Rewrite ]

let pass_name = function
  | Strash -> "strash"
  | Rewrite -> "rewrite"
  | Balance -> "balance"
  | Dce -> "dce"
  | Cse -> "cse"
  | Constprop -> "constprop"

(* Rebuild every live node bottom-up through a fresh (hash-consing)
   graph; [two_level] arms the rewrite rules. Ids are topological, so a
   single ascending sweep sees fanins before fanouts. *)
let rebuild ?(two_level = false) t =
  let s = create ~pi_names:t.names () in
  s.two_level <- two_level;
  let live = live_marks t in
  let map = Array.make t.n const_false in
  for i = 0 to num_pis t do
    map.(i) <- lit i false
  done;
  let translate l =
    let m = map.(lit_node l) in
    if lit_compl l then neg m else m
  in
  for id = first_and t to t.n - 1 do
    if live.(id) then
      map.(id) <- mk_and s (translate t.fan0.(id)) (translate t.fan1.(id))
  done;
  Array.iter (fun (name, l) -> set_output s name (translate l)) t.outs;
  s.two_level <- false;
  s

(* Garbage collection without a hash table: copy live nodes, renumber.
   Structure-preserving, so it can never merge or fold. *)
let compact t =
  let live = live_marks t in
  let s = create ~strash:false ~pi_names:t.names () in
  let map = Array.make t.n const_false in
  for i = 0 to num_pis t do
    map.(i) <- lit i false
  done;
  let translate l =
    let m = map.(lit_node l) in
    if lit_compl l then neg m else m
  in
  for id = first_and t to t.n - 1 do
    if live.(id) then
      map.(id) <- alloc s (translate t.fan0.(id)) (translate t.fan1.(id))
  done;
  Array.iter (fun (name, l) -> set_output s name (translate l)) t.outs;
  s

(* Reference counts over live structure (outputs included), used to stop
   cone flattening at shared nodes so rebuilds never duplicate logic. *)
let ref_counts t live =
  let refs = Array.make t.n 0 in
  let bump l = refs.(lit_node l) <- refs.(lit_node l) + 1 in
  for id = first_and t to t.n - 1 do
    if live.(id) then begin
      bump t.fan0.(id);
      bump t.fan1.(id)
    end
  done;
  Array.iter (fun (_, l) -> bump l) t.outs;
  refs

(* Leaves of the maximal AND cone rooted at [id]: expand through
   non-complemented, single-fanout AND fanins. Deterministic
   (structure-derived) leaf order. *)
let cone_leaves t refs id =
  let rec gather acc l =
    let i = lit_node l in
    if (not (lit_compl l)) && is_and t i && refs.(i) = 1 then
      gather (gather acc t.fan0.(i)) t.fan1.(i)
    else l :: acc
  in
  gather (gather [] t.fan0.(id)) t.fan1.(id)

(* Cone-restructuring rebuilds (Balance and Cse): only referenced nodes
   materialize in the new graph; single-fanout cone interiors are
   re-derived from the flattened leaf list by [combine]. *)
let restructure t ~combine =
  let s = create ~pi_names:t.names () in
  let live = live_marks t in
  let refs = ref_counts t live in
  let map = Array.make t.n (-1) in
  for i = 0 to num_pis t do
    map.(i) <- lit i false
  done;
  let rec translate l =
    let m = build (lit_node l) in
    if lit_compl l then neg m else m
  and build id =
    if map.(id) >= 0 then map.(id)
    else begin
      let leaves = List.map translate (cone_leaves t refs id) in
      let m = combine s leaves in
      map.(id) <- m;
      m
    end
  in
  Array.iter (fun (name, l) -> set_output s name (translate l)) t.outs;
  s

(* Huffman-style delay balancing: always combine the two shallowest
   operands. Sorting by (level, literal) keeps ties — and therefore the
   whole rebuild — deterministic. *)
let balance_combine s leaves =
  let le (la, a) (lb, b) = la < lb || (la = lb && a <= b) in
  let rec insert x = function
    | [] -> [ x ]
    | y :: rest -> if le x y then x :: y :: rest else y :: insert x rest
  in
  let sorted =
    List.fold_left
      (fun acc l -> insert (level_of s l, l) acc)
      []
      leaves
  in
  let rec reduce = function
    | [] -> const_true
    | [ (_, l) ] -> l
    | (_, a) :: (_, b) :: rest ->
      let l = mk_and s a b in
      reduce (insert (level_of s l, l) rest)
  in
  reduce sorted

(* Chain-canonical CSE: sorted leaves folded into a left-deep chain, so
   cones sharing a leaf-set prefix share the chain nodes through the
   hash table. *)
let cse_combine s leaves =
  match List.sort compare leaves with
  | [] -> const_true
  | first :: rest -> List.fold_left (fun acc l -> mk_and s acc l) first rest

let apply pass t =
  match pass with
  | Strash | Constprop -> rebuild t
  | Rewrite -> rebuild ~two_level:true t
  | Dce -> compact t
  | Balance -> restructure t ~combine:balance_combine
  | Cse -> restructure t ~combine:cse_combine
