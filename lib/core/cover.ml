module Geom = Cals_util.Geom
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Cell = Cals_cell.Cell
module Pattern = Cals_cell.Pattern
module Library = Cals_cell.Library
module Metrics = Cals_telemetry.Metrics

let m_matches_per_vertex =
  Metrics.histogram ~help:"Pattern matches tried per covered vertex"
    ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]
    "cover_matches_per_vertex"

type options = {
  k : float;
  t : float;
  distance : Geom.point -> Geom.point -> float;
  incremental_update : bool;
  include_wire2 : bool;
  transitive_wire : bool;
}

type solution = {
  cell : Cell.t;
  leaves : int array;
  covered : int list;
  area_cost : float;
  wire_cost : float;
  arrival_ns : float;
  cost : float;
  com : Geom.point;
}

type t = {
  subject : Subject.t;
  partition : Partition.t;
  sols : solution option array;
  evaluated : int;
}

(* ---------------- Match enumeration ---------------- *)

(* A candidate is a consistent binding of pattern variables to subject
   nodes plus the list of base gates the pattern consumes. Internal
   pattern nodes may only descend along tree-internal edges; leaves bind
   anywhere (the fanin becomes an input of the cell). *)
let enumerate_matches subject (partition : Partition.t) pattern v =
  let gates = subject.Subject.gates in
  let rec go pattern v bind =
    match pattern with
    | Pattern.Var i -> (
      match List.assoc_opt i bind with
      | Some u -> if u = v then [ (bind, []) ] else []
      | None -> [ ((i, v) :: bind, []) ])
    | Pattern.Inv q -> (
      match gates.(v) with
      | Subject.Inv a ->
        descend q a v bind |> List.map (fun (b, cov) -> (b, v :: cov))
      | Subject.Pi _ | Subject.Nand2 _ -> [])
    | Pattern.Nand (q1, q2) -> (
      match gates.(v) with
      | Subject.Nand2 (a, b) ->
        let orient x y =
          List.concat_map
            (fun (b1, cov1) ->
              descend q2 y v b1
              |> List.map (fun (b2, cov2) -> (b2, (v :: cov1) @ cov2)))
            (descend q1 x v bind)
        in
        if a = b then orient a a else orient a b @ orient b a
      | Subject.Pi _ | Subject.Inv _ -> [])
  and descend q child parent bind =
    match q with
    | Pattern.Var _ -> go q child bind
    | Pattern.Inv _ | Pattern.Nand _ ->
      if partition.Partition.father.(child) = Some parent then go q child bind
      else []
  in
  go pattern v []

(* ---------------- K-independent match sets ---------------- *)

(* A structural candidate: a cell whose pattern binds at a vertex. The
   binding depends only on the subject graph, the partition and the
   library — never on K, the companion placement or the DP state — so it
   can be computed once per tree and reused across a whole K schedule. *)
type candidate = {
  cand_cell : Cell.t;
  cand_leaves : int array;  (** Subject node per pattern variable. *)
  cand_covered : int list;  (** Base gates the match consumes. *)
}

type node_matches = {
  candidates : candidate array;
      (** In exact (cell, pattern, binding) enumeration order — the DP's
          tie-breaking depends on this order, so cached and freshly
          enumerated candidates must agree element for element. *)
  enumerated : int;
      (** Raw bindings enumerated, including ones rejected for unbound
          variables; keeps [matches_evaluated] identical to a cold run. *)
}

type matchset = node_matches option array

let match_node subject ~library ~(partition : Partition.t) v =
  let enumerated = ref 0 in
  let acc = ref [] in
  List.iter
    (fun (cell : Cell.t) ->
      List.iter
        (fun pattern ->
          List.iter
            (fun (binding, covered) ->
              incr enumerated;
              let nvars = Pattern.num_vars pattern in
              let leaves = Array.make nvars (-1) in
              List.iter (fun (var, node) -> leaves.(var) <- node) binding;
              if not (Array.exists (fun l -> l < 0) leaves) then
                acc :=
                  { cand_cell = cell; cand_leaves = leaves;
                    cand_covered = covered }
                  :: !acc)
            (enumerate_matches subject partition pattern v))
        cell.Cell.patterns)
    (Library.cells library);
  { candidates = Array.of_list (List.rev !acc); enumerated = !enumerated }

let is_gate subject v =
  match subject.Subject.gates.(v) with
  | Subject.Pi _ -> false
  | Subject.Inv _ | Subject.Nand2 _ -> true

(* Wire cost of the Pedram-Bhat-style transitive variant: total original
   edge length of the full fanin cone below a node. *)
let tfi_wire subject ~positions ~distance =
  let n = Subject.num_nodes subject in
  let memo = Array.make n nan in
  let rec go v =
    if memo.(v) = memo.(v) (* not NaN *) then memo.(v)
    else begin
      let total =
        List.fold_left
          (fun acc c -> acc +. distance positions.(v) positions.(c) +. go c)
          0.0
          (Subject.fanins subject.Subject.gates.(v))
      in
      memo.(v) <- total;
      total
    end
  in
  for v = 0 to n - 1 do
    ignore (go v)
  done;
  memo

(* The DP prices every cached candidate in one pass over flat state and
   builds a [solution] only for each vertex's winner, so a K point
   allocates little beyond its output. The float operations are those of
   the plain definitions, in the same order, so results are bit-identical
   to them (test_core "cover pinned"):
   - area: [cell.area] plus each leaf's area, in leaf order;
   - center of mass: the x and y sums over [covered] in order, each
     divided by the count;
   - WIRE1: from 0, each leaf's distance in leaf order; WIRE2 then adds
     each leaf's memoized wire cost onto it, in leaf order;
   - arrival: the maximum from 0 under a strict [>] of each leaf's
     arrival plus its Elmore wire delay, plus the cell delay.
   [distance] is called once per leaf, and that value feeds both WIRE1
   and the arrival. The incumbent is kept on
   [b.cost < cost || (b.cost = cost && b.area_cost <= area_cost)], so the
   first of equally priced candidates in enumeration order wins. *)
let run ~matchsets subject ~library ~partition ~positions options =
  let n = Subject.num_nodes subject in
  let wire = Library.wire library in
  let res = wire.Library.res_kohm_per_um and cap = wire.Library.cap_pf_per_um in
  (* Current companion positions (collapsed to centers of mass as matches
     are chosen), as flat coordinate arrays. *)
  let cur_x = Array.map (fun p -> p.Geom.x) positions in
  let cur_y = Array.map (fun p -> p.Geom.y) positions in
  let sols : solution option array = Array.make n None in
  (* Per-node memoized figures for fanin lookups (Eqs. 1 and 3). PIs keep
     zero cost and their pad position. *)
  let node_com = Array.copy positions in
  let node_wire = Array.make n 0.0 in
  let node_area = Array.make n 0.0 in
  let node_arrival = Array.make n 0.0 in
  let tfi =
    if options.transitive_wire then
      tfi_wire subject ~positions ~distance:options.distance
    else [||]
  in
  let evaluated = ref 0 in
  let fanout_counts = Subject.fanout_counts subject in
  for v = 0 to n - 1 do
    if partition.Partition.live.(v) && is_gate subject v then begin
      let nm =
        match matchsets.(v) with
        | Some nm -> nm
        | None ->
          invalid_arg
            (Printf.sprintf "Cover.run: no match set at live gate %d" v)
      in
      evaluated := !evaluated + nm.enumerated;
      (* Each reader of the match root is roughly one standard sink; a
         sink-less root still drives a primary-output load. *)
      let load = 0.01 *. float_of_int (Int.max 1 fanout_counts.(v)) in
      (* The incumbent: its candidate index (-1 before the first) and
         figures. *)
      let best = ref (-1) in
      let best_area = ref 0.0 and best_wire = ref 0.0 in
      let best_arrival = ref 0.0 and best_cost = ref 0.0 in
      let best_com = ref Geom.{ x = 0.0; y = 0.0 } in
      let cands = nm.candidates in
      for ci = 0 to Array.length cands - 1 do
        let { cand_cell = cell; cand_leaves = leaves; cand_covered = covered } =
          cands.(ci)
        in
        (* A loop, not a closure, keeps the float sums unboxed. *)
        let sx = ref 0.0 and sy = ref 0.0 and count = ref 0 in
        let rest = ref covered in
        while
          match !rest with
          | [] -> false
          | u :: tl ->
            sx := !sx +. cur_x.(u);
            sy := !sy +. cur_y.(u);
            incr count;
            rest := tl;
            true
        do
          ()
        done;
        let m = float_of_int !count in
        let com = Geom.{ x = !sx /. m; y = !sy /. m } in
        let area = ref cell.Cell.area in
        let wire1 = ref 0.0 in
        let latest = ref 0.0 in
        for li = 0 to Array.length leaves - 1 do
          let l = leaves.(li) in
          area := !area +. node_area.(l);
          (* Elmore wire delay on each leaf-to-match edge (the model
             {!Cals_sta.Sta} uses post-route), so the DP ranks covers by
             the arrival the routed netlist will actually see — a
             constant-load estimate ties covers that the wire then unties
             the wrong way. *)
          let d = options.distance com node_com.(l) in
          if not options.transitive_wire then wire1 := !wire1 +. d;
          let r = d *. res in
          let c = d *. cap in
          let t_wire = r *. ((c /. 2.0) +. cell.Cell.input_cap_pf) in
          let t = node_arrival.(l) +. t_wire in
          if t > !latest then latest := t
        done;
        let wire_cost =
          if options.transitive_wire then begin
            (* Charge every leaf at its original position plus its whole
               cone: the uncontrolled variant of Section 3.3. *)
            let w = ref 0.0 in
            for li = 0 to Array.length leaves - 1 do
              let l = leaves.(li) in
              w := !w +. options.distance com positions.(l) +. tfi.(l)
            done;
            !w
          end
          else if options.include_wire2 then begin
            let w = ref !wire1 in
            for li = 0 to Array.length leaves - 1 do
              w := !w +. node_wire.(leaves.(li))
            done;
            !w
          end
          else !wire1
        in
        let area_cost = !area in
        let arrival_ns = !latest +. Cell.delay_ns cell ~load_pf:load in
        let cost =
          area_cost +. (options.k *. wire_cost) +. (options.t *. arrival_ns)
        in
        if
          !best < 0
          || not
               (!best_cost < cost
               || (!best_cost = cost && !best_area <= area_cost))
        then begin
          best := ci;
          best_area := area_cost;
          best_wire := wire_cost;
          best_arrival := arrival_ns;
          best_cost := cost;
          best_com := com
        end
      done;
      if !best < 0 then
        (* Cannot happen: INV and NAND2 always match. *)
        failwith "Cover.run: no match at a live gate";
      let { cand_cell; cand_leaves; cand_covered } = cands.(!best) in
      let com = !best_com in
      Metrics.observe m_matches_per_vertex (float_of_int nm.enumerated);
      sols.(v) <-
        Some
          { cell = cand_cell; leaves = cand_leaves; covered = cand_covered;
            area_cost = !best_area; wire_cost = !best_wire;
            arrival_ns = !best_arrival; cost = !best_cost; com };
      node_com.(v) <- com;
      node_wire.(v) <- !best_wire;
      node_area.(v) <- !best_area;
      node_arrival.(v) <- !best_arrival;
      if options.incremental_update then
        List.iter
          (fun u ->
            cur_x.(u) <- com.Geom.x;
            cur_y.(u) <- com.Geom.y)
          cand_covered
    end
  done;
  { subject; partition; sols; evaluated = !evaluated }

let solution t v = t.sols.(v)
let matches_evaluated t = t.evaluated

type extraction = {
  mapped : Mapped.t;
  duplicated_gates : int;
  taps : int;
}

(* Instantiate cells for all needed signals, memoized per subject node:
   [inst_of.(v)] is the instance built for [v] (-1 before it is), and
   [cover_count.(u)] how many instances cover base gate [u]. *)
let extract_internal t =
  let n = Subject.num_nodes t.subject in
  let inst_of = Array.make n (-1) in
  let cover_count = Array.make n 0 in
  let instances = ref [] in
  let count = ref 0 in
  let taps = ref 0 in
  let rec inst v =
    match t.subject.Subject.gates.(v) with
    | Subject.Pi idx -> Mapped.Of_pi idx
    | Subject.Inv _ | Subject.Nand2 _ ->
      if inst_of.(v) >= 0 then begin
        incr taps;
        Mapped.Of_inst inst_of.(v)
      end
      else begin
        let sol =
          match t.sols.(v) with
          | Some s -> s
          | None -> failwith "Cover.extract: no solution at needed gate"
        in
        let fanins = Array.map inst sol.leaves in
        let idx = !count in
        incr count;
        instances :=
          { Mapped.cell = sol.cell; fanins; seed = sol.com } :: !instances;
        List.iter (fun u -> cover_count.(u) <- cover_count.(u) + 1) sol.covered;
        inst_of.(v) <- idx;
        Mapped.Of_inst idx
      end
  in
  let outputs =
    Array.map (fun (name, v) -> (name, inst v)) t.subject.Subject.outputs
  in
  let mapped =
    Mapped.make ~pi_names:t.subject.Subject.pi_names
      ~instances:(Array.of_list (List.rev !instances))
      ~outputs
  in
  let duplicated =
    Array.fold_left (fun acc c -> acc + Int.max 0 (c - 1)) 0 cover_count
  in
  (mapped, duplicated, !taps, cover_count)

let extract t =
  let mapped, duplicated_gates, taps, _ = extract_internal t in
  { mapped; duplicated_gates; taps }

let check_coverage t =
  let _, _, _, cover_count = extract_internal t in
  let missing = ref [] in
  Array.iteri
    (fun v g ->
      match g with
      | Subject.Pi _ -> ()
      | Subject.Inv _ | Subject.Nand2 _ ->
        if t.partition.Partition.live.(v) && cover_count.(v) = 0 then
          missing := v :: !missing)
    t.subject.Subject.gates;
  match !missing with
  | [] -> Ok ()
  | vs ->
    Error
      (Printf.sprintf "%d live gates uncovered (first: %d)" (List.length vs)
         (List.hd (List.rev vs)))
