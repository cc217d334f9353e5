(* The extraction loop that Cals_logic.Optimize replaced with interned
   divisor keys and a per-node savings memo: every round rebuilds the
   candidate table keyed by cube lists, stable-sorts it, rebuilds the
   readers and trial-divides the 48 shortlisted candidates again. Kept as
   written, bar the telemetry, as the oracle the memoized loop must
   reproduce bit for bit. *)

module Network = Cals_logic.Network
module Sop = Cals_logic.Sop
module Cube = Cals_logic.Cube
module Kernel = Cals_logic.Kernel
module Optimize = Cals_logic.Optimize

(* ------------------------------------------------------------------ *)
(* Signal-space translation                                            *)
(* ------------------------------------------------------------------ *)

(* A divisor candidate lives in "signal space": its cubes are literal sets
   over network signals rather than over one node's local variables. *)

type slit = Network.signal * bool

let node_cube_to_signals (n : Network.node) c : slit list =
  List.map (fun (v, ph) -> (n.Network.fanins.(v), ph)) (Cube.literals c)

let canonical_cube (lits : slit list) = List.sort compare lits
let canonical_sop (cubes : slit list list) = List.sort compare (List.map canonical_cube cubes)

let sop_to_signal_space (n : Network.node) sop =
  canonical_sop (List.map (node_cube_to_signals n) (Sop.cubes sop))

(* Translate a signal-space divisor into the local space of node [n],
   returning [None] when some divisor signal is not a fanin of [n]. *)
let divisor_in_local_space (n : Network.node) (cubes : slit list list) =
  let pos_of = Hashtbl.create 8 in
  Array.iteri (fun v s -> if not (Hashtbl.mem pos_of s) then Hashtbl.add pos_of s v) n.Network.fanins;
  let translate_cube lits =
    let rec go acc = function
      | [] -> Some acc
      | (s, ph) :: rest -> (
        match Hashtbl.find_opt pos_of s with
        | Some v -> go ((v, ph) :: acc) rest
        | None -> None)
    in
    (* Aliased fanins can merge or contradict; a contradictory product
       never divides anything, so reject the candidate here. *)
    Option.bind (go [] lits) Cube.of_literals_merged
  in
  let rec all acc = function
    | [] -> Some (Sop.of_cubes acc)
    | c :: rest -> (
      match translate_cube c with Some cu -> all (cu :: acc) rest | None -> None)
  in
  all [] cubes

(* Distinct signals of a signal-space divisor, in deterministic order. *)
let divisor_signals (cubes : slit list list) =
  List.sort_uniq compare (List.concat_map (List.map fst) cubes)

(* Build the local SOP of the new divisor node over [divisor_signals]. *)
let divisor_node_sop (cubes : slit list list) signals =
  let pos = Hashtbl.create 8 in
  List.iteri (fun i s -> Hashtbl.add pos s i) signals;
  Sop.of_cubes
    (List.filter_map
       (fun lits ->
         Cube.of_literals_merged
           (List.map (fun (s, ph) -> (Hashtbl.find pos s, ph)) lits))
       cubes)

(* Literals saved by rewriting node [f] with divisor [d] (trial division;
   0 when the divisor does not divide). *)
let node_savings (n : Network.node) d_local =
  let f = n.Network.sop in
  let q, r = Sop.divide f d_local in
  if Sop.is_zero q then 0
  else
    let before = Sop.num_literals f in
    let after = Sop.num_literals q + Sop.num_cubes q + Sop.num_literals r in
    before - after

(* Rewrite node [n]: f = q * x_new + r. Returns true when applied. *)
let rewrite_with_divisor t node_id (cubes : slit list list) new_node =
  let n = Network.node t node_id in
  match divisor_in_local_space n cubes with
  | None -> false
  | Some d_local ->
    let q, r = Sop.divide n.Network.sop d_local in
    if Sop.is_zero q then false
    else begin
      let nf = Array.length n.Network.fanins in
      if nf >= Cube.max_vars then false
      else begin
        n.Network.fanins <-
          Array.append n.Network.fanins [| Network.Node new_node |];
        n.Network.sop <- Sop.sum (Sop.product q (Sop.var nf)) r;
        Network.normalize_fanins t node_id;
        true
      end
    end

(* ------------------------------------------------------------------ *)
(* Candidate collection                                                *)
(* ------------------------------------------------------------------ *)

type candidate = {
  cubes : slit list list;  (** Canonical signal-space divisor. *)
  mutable hits : int;  (** Cheap occurrence count from collection. *)
  mutable value : int;
  mutable users : int list;  (** Node ids where it divides. *)
}

(* Live readers of every signal, each in increasing node id: the only nodes
   a divisor over that signal can divide. Built once per extraction round;
   evaluation never mutates the network. *)
let readers t =
  let live = Network.live_nodes t in
  let of_pi = Array.make (Network.num_pis t) [] in
  let of_node = Array.make (Network.num_nodes t) [] in
  for i = Network.num_nodes t - 1 downto 0 do
    if live.(i) then
      Array.iter
        (fun s ->
          let tbl, j =
            match s with Network.Pi j -> (of_pi, j) | Network.Node j -> (of_node, j)
          in
          match tbl.(j) with
          | k :: _ when k = i -> () (* aliased fanin *)
          | l -> tbl.(j) <- i :: l)
        (Network.node t i).Network.fanins
  done;
  function Network.Pi j -> of_pi.(j) | Network.Node j -> of_node.(j)

let evaluate_candidate t readers cand =
  let signals = divisor_signals cand.cubes in
  let body = divisor_node_sop cand.cubes signals in
  let overhead = Sop.num_literals body + 1 in
  let value = ref (-overhead) in
  let users = ref [] in
  (* A divisor over a non-fanin signal has no local form: only nodes reading
     every divisor signal are translated, walking the shortest reader list.
     Every candidate has a literal, so [signals] is never empty. *)
  let fewest =
    List.fold_left
      (fun best s ->
        let r = readers s in
        if List.compare_lengths r best < 0 then r else best)
      (readers (List.hd signals)) signals
  in
  List.iter
    (fun i ->
      let n = Network.node t i in
      let reads s = Array.exists (( = ) s) n.Network.fanins in
      if List.for_all reads signals then
        match divisor_in_local_space n cand.cubes with
        | None -> ()
        | Some d_local ->
          let s = node_savings n d_local in
          if s > 0 then begin
            value := !value + s;
            users := i :: !users
          end)
    fewest;
  cand.value <- !value;
  cand.users <- !users

let materialize t cand =
  let signals = divisor_signals cand.cubes in
  let body = divisor_node_sop cand.cubes signals in
  let new_node = Network.add_node t (Array.of_list signals) body in
  let applied =
    List.fold_left
      (fun acc i -> if rewrite_with_divisor t i cand.cubes new_node then acc + 1 else acc)
      0 cand.users
  in
  applied > 0

(* ------------------------------------------------------------------ *)
(* Cube extraction                                                     *)
(* ------------------------------------------------------------------ *)

(* The divisors node [n] offers, in registration order: each full cube and
   each pairwise intersection (capped for speed) with two or more literals. *)
let cube_offers (n : Network.node) =
  let cubes = Array.of_list (Sop.cubes n.Network.sop) in
  let out = ref [] in
  let offer lits = if List.length lits >= 2 then out := canonical_cube lits :: !out in
  (* Identical full cubes across nodes. *)
  Array.iter (fun c -> offer (node_cube_to_signals n c)) cubes;
  let cap = min (Array.length cubes) 30 in
  for a = 0 to cap - 1 do
    for b = a + 1 to cap - 1 do
      let common = Cube.common cubes.(a) cubes.(b) in
      if Cube.num_literals common >= 2 then offer (node_cube_to_signals n common)
    done
  done;
  List.rev !out

(* Candidates of one round: every live node's offers, counted by key. A
   node's offers depend only on its fanins and SOP, which [materialize]
   replaces (never mutates) on the nodes it rewrites, so [memo] keeps them
   per node id across the rounds of one extraction while both are
   physically unchanged. Registration runs in node-id order into a fresh
   table, so [memo] changes neither the table nor the order it folds in. *)
let collect memo ~offers ~cubes_of t =
  let tbl = Hashtbl.create 256 in
  let live = Network.live_nodes t in
  for i = 0 to Network.num_nodes t - 1 do
    if live.(i) then begin
      let n = Network.node t i in
      let keys =
        match Hashtbl.find_opt memo i with
        | Some (fanins, sop, keys)
          when fanins == n.Network.fanins && sop == n.Network.sop ->
          keys
        | Some _ | None ->
          let keys = offers n in
          Hashtbl.replace memo i (n.Network.fanins, n.Network.sop, keys);
          keys
      in
      List.iter
        (fun key ->
          match Hashtbl.find_opt tbl key with
          | Some c -> c.hits <- c.hits + 1
          | None ->
            Hashtbl.add tbl key { cubes = cubes_of key; hits = 1; value = 0; users = [] })
        keys
    end
  done;
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []

(* Extraction rounds per pass. *)
let max_rounds = 64

(* Exact evaluation is expensive (trial division against every node), so
   rank candidates by a cheap score first and only evaluate the best 48. *)
let best_candidate t cands =
  let cheap c =
    let lits = List.fold_left (fun acc cu -> acc + List.length cu) 0 c.cubes in
    c.hits * (lits - 1)
  in
  (* Scores are computed once; a stable sort keeps equal scores in
     collection order. *)
  let ranked =
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare b a)
      (List.map (fun c -> (cheap c, c)) cands)
  in
  let shortlist = List.filteri (fun i _ -> i < 48) (List.map snd ranked) in
  let readers = readers t in
  List.iter (evaluate_candidate t readers) shortlist;
  List.fold_left
    (fun best c ->
      match best with
      | Some b when b.value >= c.value -> best
      | Some _ | None -> if c.value > 0 && List.length c.users >= 1 then Some c else best)
    None shortlist

let extract_common_cubes t =
  let memo = Hashtbl.create 256 in
  let rec go round created =
    if round >= max_rounds then created
    else
      let cands = collect memo ~offers:cube_offers ~cubes_of:(fun k -> [ k ]) t in
      match best_candidate t cands with
      | None -> created
      | Some c -> if materialize t c then go (round + 1) (created + 1) else created
  in
  let n = go 0 0 in
  Network.sweep t;
  n

(* ------------------------------------------------------------------ *)
(* Kernel extraction                                                   *)
(* ------------------------------------------------------------------ *)

(* Kernels with 2 to 12 cubes of a node with at most 40 cubes. *)
let kernel_offers (n : Network.node) =
  if Sop.num_cubes n.Network.sop > 40 then []
  else
    List.filter_map
      (fun k ->
        let kern = k.Kernel.kernel in
        if Sop.num_cubes kern >= 2 && Sop.num_cubes kern <= 12 then
          Some (sop_to_signal_space n kern)
        else None)
      (Kernel.all n.Network.sop)

let extract_kernels t =
  let memo = Hashtbl.create 256 in
  let rec go round created =
    if round >= max_rounds then created
    else
      match
        best_candidate t
          (collect memo ~offers:kernel_offers ~cubes_of:Fun.id t)
      with
      | None -> created
      | Some c -> if materialize t c then go (round + 1) (created + 1) else created
  in
  let n = go 0 0 in
  Network.sweep t;
  n

let script_area ?(rounds = 2) t =
  Network.sweep t;
  for _ = 1 to rounds do
    ignore (extract_common_cubes t);
    ignore (extract_kernels t);
    ignore (Optimize.eliminate ~value_threshold:0 t)
  done;
  Network.sweep t
