module Span = Cals_telemetry.Span
module Metrics = Cals_telemetry.Metrics

let m_cubes_extracted =
  Metrics.counter ~help:"Common cubes extracted as new nodes"
    "optimize_cubes_extracted"

let m_kernels_extracted =
  Metrics.counter ~help:"Kernel divisors extracted as new nodes"
    "optimize_kernels_extracted"

let m_eliminated =
  Metrics.counter ~help:"Low-value nodes eliminated into their fanouts"
    "optimize_nodes_eliminated"

type stats = {
  live_nodes : int;
  literals : int;
}

let stats t =
  { live_nodes = Network.num_live_nodes t; literals = Network.num_literals t }

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

(* One divisor key of an extraction call, interned: every distinct key a
   node offers gets one record, so the rounds count, rank and evaluate
   records instead of hashing and comparing cube lists again. *)
type divisor = {
  id : int;
  hash : int;  (** [Hashtbl.hash] of the offered key. *)
  cubes : slit list list;  (** Canonical signal-space divisor. *)
  lits : int;  (** Literals of [cubes], repeats counted. *)
  shape : shape Lazy.t;
  mutable round : int;  (** Last round that counted it. *)
  mutable hits : int;  (** Cheap occurrence count of [round]. *)
  mutable value : int;
  mutable users : int list;  (** Node ids where it divides, decreasing. *)
}

and shape = {
  signals : Network.signal list;  (** [divisor_signals cubes]. *)
  body : Sop.t;  (** The new node's SOP over [signals]. *)
  overhead : int;  (** Literals of [body], plus one for the node. *)
}

(* What one node offers and what each evaluated divisor saves on it. Both
   depend only on the node's fanins and SOP, which [materialize] replaces
   (never mutates) on the nodes it rewrites, so an entry holds while both
   are physically the ones it was made from. *)
type entry = {
  fanins : Network.signal array;
  sop : Sop.t;
  offers : divisor list;  (** In registration order. *)
  savings : (int, int) Hashtbl.t;  (** Divisor id to literals saved. *)
}

(* The memos of one extraction call. Node ids are stable until the call's
   final sweep, which compacts them, so nothing outlives the call. *)
type 'k memo = {
  offers_of : Network.node -> 'k list;
  cubes_of : 'k -> slit list list;
  interned : ('k, divisor) Hashtbl.t;
  mutable entries : entry option array;  (** By node id. *)
  mutable computed : int;  (** Trial divisions run. *)
  mutable reused : int;  (** Savings read back from an entry. *)
}

let m_savings_computed =
  Metrics.counter ~help:"Divisor savings computed by trial division"
    "optimize_savings_computed"

let m_savings_reused =
  Metrics.counter ~help:"Divisor savings reused from an earlier round"
    "optimize_savings_reused"

let intern memo key =
  match Hashtbl.find_opt memo.interned key with
  | Some d -> d
  | None ->
    let cubes = memo.cubes_of key in
    let shape =
      lazy
        (let signals = divisor_signals cubes in
         let body = divisor_node_sop cubes signals in
         { signals; body; overhead = Sop.num_literals body + 1 })
    in
    let d =
      {
        id = Hashtbl.length memo.interned;
        hash = Hashtbl.hash key;
        cubes;
        lits = List.fold_left (fun acc cu -> acc + List.length cu) 0 cubes;
        shape;
        round = -1;
        hits = 0;
        value = 0;
        users = [];
      }
    in
    Hashtbl.add memo.interned key d;
    d

let entry memo t i =
  let n = Network.node t i in
  if i >= Array.length memo.entries then begin
    let grown = Array.make (max 64 (2 * i)) None in
    Array.blit memo.entries 0 grown 0 (Array.length memo.entries);
    memo.entries <- grown
  end;
  match memo.entries.(i) with
  | Some e when e.fanins == n.Network.fanins && e.sop == n.Network.sop -> e
  | Some _ | None ->
    let e =
      {
        fanins = n.Network.fanins;
        sop = n.Network.sop;
        offers = List.map (intern memo) (memo.offers_of n);
        savings = Hashtbl.create 8;
      }
    in
    memo.entries.(i) <- Some e;
    e

(* Live readers of every signal, each in increasing node id: the only nodes
   a divisor over that signal can divide. Built once per extraction round;
   evaluation never mutates the network. *)
let readers t live =
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

(* Literals [d] saves on node [i] (0 when it does not divide), by trial
   division the first time and from [i]'s entry after that. *)
let savings memo t i d =
  let e = entry memo t i in
  match Hashtbl.find e.savings d.id with
  | s ->
    memo.reused <- memo.reused + 1;
    s
  | exception Not_found ->
    memo.computed <- memo.computed + 1;
    let n = Network.node t i in
    let s =
      match divisor_in_local_space n d.cubes with
      | None -> 0
      | Some d_local -> node_savings n d_local
    in
    Hashtbl.add e.savings d.id s;
    s

(* Whether [fanins] holds every signal of [signals]. It runs for every
   reader of every shortlisted candidate, so it compares signals without
   the polymorphic compare and allocates no closure. *)
let rec has_signal fanins s k =
  k < Array.length fanins
  &&
  match (s, fanins.(k)) with
  | Network.Pi i, Network.Pi j | Network.Node i, Network.Node j ->
    i = j || has_signal fanins s (k + 1)
  | Network.Pi _, Network.Node _ | Network.Node _, Network.Pi _ ->
    has_signal fanins s (k + 1)

let rec reads_all fanins = function
  | [] -> true
  | s :: rest -> has_signal fanins s 0 && reads_all fanins rest

let evaluate_candidate memo t readers d =
  let { signals; overhead; _ } = Lazy.force d.shape in
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
      if reads_all (Network.node t i).Network.fanins signals then begin
        let s = savings memo t i d in
        if s > 0 then begin
          value := !value + s;
          users := i :: !users
        end
      end)
    fewest;
  d.value <- !value;
  d.users <- !users

let materialize t d =
  let { signals; body; _ } = Lazy.force d.shape in
  let new_node = Network.add_node t (Array.of_list signals) body in
  let applied =
    List.fold_left
      (fun acc i -> if rewrite_with_divisor t i d.cubes new_node then acc + 1 else acc)
      0 d.users
  in
  applied > 0

(* A round's count table: interned divisors, hashed by their stored
   [Hashtbl.hash]. *)
module Count = Hashtbl.Make (struct
  type t = divisor

  let equal = ( == )
  let hash d = d.hash
end)

(* Candidates of one round: every live node's offers, counted by key, and
   registered in node-id order into a fresh table. With the same hashes,
   the same initial size and the same sequence of adds as a generic table
   keyed by the cube lists, its buckets, resizes and fold order are the
   same, and so is the order ties break in. *)
let collect memo t live round =
  let tbl = Count.create 256 in
  let count d =
    if d.round = round then d.hits <- d.hits + 1
    else begin
      d.round <- round;
      d.hits <- 1;
      Count.add tbl d ()
    end
  in
  for i = 0 to Network.num_nodes t - 1 do
    if live.(i) then List.iter count (entry memo t i).offers
  done;
  tbl

(* Extraction rounds per pass. *)
let max_rounds = 64

(* Exact evaluation is expensive (trial division against every node), so
   rank candidates by a cheap score first and only evaluate the best 48. *)
let shortlist_size = 48

(* The best [shortlist_size] candidates by cheap score, in the order a
   stable sort of the reversed fold order ranks them: since the fold
   visits them in reverse, a candidate ranks ahead of every kept one of
   equal score. *)
let shortlist tbl =
  let top = ref [||] in
  let scores = Array.make shortlist_size 0 in
  let n = ref 0 in
  Count.iter
    (fun d () ->
      let s = d.hits * (d.lits - 1) in
      if !n < shortlist_size || s >= scores.(shortlist_size - 1) then begin
        if !n = 0 then top := Array.make shortlist_size d;
        let p = ref 0 in
        while !p < !n && scores.(!p) > s do
          incr p
        done;
        for j = min !n (shortlist_size - 1) downto !p + 1 do
          !top.(j) <- !top.(j - 1);
          scores.(j) <- scores.(j - 1)
        done;
        !top.(!p) <- d;
        scores.(!p) <- s;
        n := min (!n + 1) shortlist_size
      end)
    tbl;
  Array.sub !top 0 !n

let best_candidate memo t live tbl =
  let shortlist = shortlist tbl in
  let readers = readers t live in
  Array.iter (evaluate_candidate memo t readers) shortlist;
  Array.fold_left
    (fun best d ->
      match best with
      | Some b when b.value >= d.value -> best
      | Some _ | None -> if d.value > 0 && d.users <> [] then Some d else best)
    None shortlist

(* Up to [max_rounds] extractions of the best candidate, then a sweep. The
   memos are scoped to the rounds, so the sweep runs without them. *)
let extract ~offers ~cubes_of t =
  let created =
    let memo =
      {
        offers_of = offers;
        cubes_of;
        interned = Hashtbl.create 256;
        entries = [||];
        computed = 0;
        reused = 0;
      }
    in
    let rec go round created =
      if round >= max_rounds then created
      else
        let live = Network.live_nodes t in
        match best_candidate memo t live (collect memo t live round) with
        | None -> created
        | Some d -> if materialize t d then go (round + 1) (created + 1) else created
    in
    let created = go 0 0 in
    Metrics.add m_savings_computed memo.computed;
    Metrics.add m_savings_reused memo.reused;
    created
  in
  Network.sweep t;
  created

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

let extract_common_cubes t =
  Span.with_ ~cat:"logic" "logic.extract_cubes" @@ fun () ->
  extract ~offers:cube_offers ~cubes_of:(fun k -> [ k ]) t

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
  Span.with_ ~cat:"logic" "logic.extract_kernels" @@ fun () ->
  extract ~offers:kernel_offers ~cubes_of:Fun.id t

(* ------------------------------------------------------------------ *)
(* Eliminate                                                           *)
(* ------------------------------------------------------------------ *)

let eliminate ?(value_threshold = 0) t =
  Span.with_ ~cat:"logic" "logic.eliminate" @@ fun () ->
  let eliminated = ref 0 in
  let fanouts = Network.fanout_table t in
  let po_refs = Hashtbl.create 16 in
  Array.iter
    (fun (_, s) ->
      match s with
      | Network.Node i ->
        Hashtbl.replace po_refs i (1 + Option.value ~default:0 (Hashtbl.find_opt po_refs i))
      | Network.Pi _ -> ())
    (Network.outputs t);
  let order = Network.topo_order t in
  let try_eliminate i =
    let n = Network.node t i in
    let consumers = Option.value ~default:[] (Hashtbl.find_opt fanouts i) in
    let pos = Option.value ~default:0 (Hashtbl.find_opt po_refs i) in
    if pos > 0 || consumers = [] then ()
    else begin
      let lits = Sop.num_literals n.Network.sop in
      let refs = List.length consumers in
      (* Extra literals created by collapsing into every consumer. *)
      let value = ((refs - 1) * lits) - refs in
      if value <= value_threshold then begin
        (* Substitute into each consumer; only commit when all succeed so
           the node can be swept afterwards. *)
        let plan =
          List.map
            (fun c_id ->
              let c = Network.node t c_id in
              (* Find the local var reading node i. *)
              let var = ref (-1) in
              Array.iteri
                (fun v s -> if s = Network.Node i && !var < 0 then var := v)
                c.Network.fanins;
              (c_id, c, !var))
            (List.sort_uniq compare consumers)
        in
        let feasible =
          List.for_all
            (fun (_, c, var) ->
              var >= 0
              &&
              (* Bring node i's fanins into c's space (appending missing). *)
              let extra =
                Array.to_list n.Network.fanins
                |> List.filter (fun s -> not (Array.exists (( = ) s) c.Network.fanins))
                |> List.length
              in
              Array.length c.Network.fanins + extra < Cube.max_vars
              &&
              let pos_of = Hashtbl.create 8 in
              Array.iteri
                (fun v s -> if not (Hashtbl.mem pos_of s) then Hashtbl.add pos_of s v)
                c.Network.fanins;
              let next = ref (Array.length c.Network.fanins) in
              Array.iter
                (fun s ->
                  if not (Hashtbl.mem pos_of s) then begin
                    Hashtbl.add pos_of s !next;
                    incr next
                  end)
                n.Network.fanins;
              let g =
                Sop.map_vars
                  (fun v -> Hashtbl.find pos_of n.Network.fanins.(v))
                  n.Network.sop
              in
              Sop.can_substitute c.Network.sop var g)
            plan
        in
        if feasible then begin
          List.iter
            (fun (c_id, c, var) ->
              let missing =
                Array.to_list n.Network.fanins
                |> List.filter (fun s -> not (Array.exists (( = ) s) c.Network.fanins))
              in
              c.Network.fanins <- Array.append c.Network.fanins (Array.of_list missing);
              let pos_of = Hashtbl.create 8 in
              Array.iteri
                (fun v s -> if not (Hashtbl.mem pos_of s) then Hashtbl.add pos_of s v)
                c.Network.fanins;
              let g =
                Sop.map_vars
                  (fun v -> Hashtbl.find pos_of n.Network.fanins.(v))
                  n.Network.sop
              in
              c.Network.sop <- Sop.substitute c.Network.sop var g;
              Network.normalize_fanins t c_id)
            plan;
          incr eliminated
        end
      end
    end
  in
  List.iter try_eliminate order;
  Network.sweep t;
  !eliminated

(* ------------------------------------------------------------------ *)
(* Scripts                                                             *)
(* ------------------------------------------------------------------ *)

let script_area ?(rounds = 2) t =
  Span.with_ ~cat:"logic" ~meta:(Printf.sprintf "%d rounds" rounds)
    "logic.script_area"
  @@ fun () ->
  Network.sweep t;
  for _ = 1 to rounds do
    Metrics.add m_cubes_extracted (extract_common_cubes t);
    Metrics.add m_kernels_extracted (extract_kernels t);
    Metrics.add m_eliminated (eliminate ~value_threshold:0 t)
  done;
  Network.sweep t

let script_light t =
  Span.with_ ~cat:"logic" "logic.script_light" @@ fun () -> Network.sweep t
