module Subject = Cals_netlist.Subject
module Cell = Cals_cell.Cell
module Pattern = Cals_cell.Pattern
module Library = Cals_cell.Library

type candidate = {
  cand_cell : Cell.t;
  cand_leaves : int array;
  cand_covered : int list;
}

type node_matches = {
  candidates : candidate array;
  enumerated : int;
}

type table = {
  subject : Subject.t;
  library : Library.t;
  cells : Cell.t array;
  cell_area : float array;
  cell_input_cap : float array;
  cell_intrinsic : float array;
  cell_drive : float array;
  load : float array;
  first : int array;
  stop : int array;
  enumerated : int array;
  mutable count : int;
  mutable cell : int array;
  mutable leaf_first : int array;
  mutable leaves : int array;
  mutable cov_first : int array;
  mutable covered : int array;
}

(* ---------------- Enumeration ---------------- *)

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

exception Mismatch

(* Whether [leaves] and [covered] are the binding of [pattern] at [v] that
   [enumerate_matches] would produce: covered gates in pre-order (the
   root, then the first operand's gates, then the second's), each leaf
   the node its variable lands on. At a NAND at most one operand order
   can fit, since the two orders disagree on the first covered gate or
   on the first operand's leaf. *)
let binds subject (partition : Partition.t) pattern v leaves covered =
  let gates = subject.Subject.gates in
  let father = partition.Partition.father in
  (* Match [q] at [u] against the covered gates [cov]; the gates left. *)
  let rec go q u cov =
    match q with
    | Pattern.Var i -> if leaves.(i) = u then cov else raise Mismatch
    | Pattern.Inv q1 -> (
      match (gates.(u), cov) with
      | Subject.Inv a, w :: rest when w = u -> descend q1 a u rest
      | (Subject.Inv _ | Subject.Pi _ | Subject.Nand2 _), _ -> raise Mismatch)
    | Pattern.Nand (q1, q2) -> (
      match (gates.(u), cov) with
      | Subject.Nand2 (a, b), w :: rest when w = u -> (
        let orient x y = descend q2 y u (descend q1 x u rest) in
        try orient a b with Mismatch when a <> b -> orient b a)
      | (Subject.Nand2 _ | Subject.Pi _ | Subject.Inv _), _ -> raise Mismatch)
  and descend q child parent cov =
    match (q, father.(child)) with
    | Pattern.Var _, _ -> go q child cov
    | (Pattern.Inv _ | Pattern.Nand _), Some f when f = parent -> go q child cov
    | (Pattern.Inv _ | Pattern.Nand _), (Some _ | None) -> raise Mismatch
  in
  Pattern.num_vars pattern = Array.length leaves
  &&
  match go pattern v covered with
  | [] -> true
  | _ :: _ -> false
  | exception Mismatch -> false

(* ---------------- The table ---------------- *)

(* Starting room: a subject's nodes average about four candidates and
   ten leaves and ten covered gates on the bundled library (PDC-like
   0.05); the arrays double when a subject needs more. *)
let create subject ~library =
  let n = Subject.num_nodes subject in
  let cells = Array.of_list (Library.cells library) in
  let per_cell f = Array.map f cells in
  let fanout = Subject.fanout_counts subject in
  let cap = 5 * n in
  {
    subject;
    library;
    cells;
    cell_area = per_cell (fun c -> c.Cell.area);
    cell_input_cap = per_cell (fun c -> c.Cell.input_cap_pf);
    cell_intrinsic = per_cell (fun c -> c.Cell.intrinsic_ns);
    cell_drive = per_cell (fun c -> c.Cell.drive_kohm);
    load = Array.map (fun f -> 0.01 *. float_of_int (Int.max 1 f)) fanout;
    first = Array.make n (-1);
    stop = Array.make n (-1);
    enumerated = Array.make n 0;
    count = 0;
    cell = Array.make cap 0;
    leaf_first = Array.make (cap + 1) 0;
    leaves = Array.make (12 * n) 0;
    cov_first = Array.make (cap + 1) 0;
    covered = Array.make (12 * n) 0;
  }

(* Only the filled prefixes are copied; the copy grows on demand. *)
let copy t =
  let c = t.count in
  {
    t with
    first = Array.copy t.first;
    stop = Array.copy t.stop;
    enumerated = Array.copy t.enumerated;
    cell = Array.sub t.cell 0 c;
    leaf_first = Array.sub t.leaf_first 0 (c + 1);
    leaves = Array.sub t.leaves 0 t.leaf_first.(c);
    cov_first = Array.sub t.cov_first 0 (c + 1);
    covered = Array.sub t.covered 0 t.cov_first.(c);
  }

let mem t v = t.first.(v) >= 0

(* [a] with room for [n] entries, doubled when it must grow. *)
let ensure a n =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (Int.max n (2 * len)) 0 in
    Array.blit a 0 b 0 len;
    b
  end

(* A candidate's leaves and covered gates are written past the last
   candidate first, in place (no array per binding); [close] then makes
   them candidate [count]. *)
let reserve_leaves t n =
  let at = t.leaf_first.(t.count) in
  t.leaves <- ensure t.leaves (at + n);
  at

let reserve_covered t n =
  let at = t.cov_first.(t.count) in
  t.covered <- ensure t.covered (at + n);
  at

let close t ci ~leaves ~covered =
  let c = t.count in
  t.cell <- ensure t.cell (c + 1);
  t.leaf_first <- ensure t.leaf_first (c + 2);
  t.cov_first <- ensure t.cov_first (c + 2);
  t.cell.(c) <- ci;
  t.leaf_first.(c + 1) <- t.leaf_first.(c) + leaves;
  t.cov_first.(c + 1) <- t.cov_first.(c) + covered;
  t.count <- c + 1

let add_node t ~partition v =
  let lo = t.count in
  let enumerated = ref 0 in
  Array.iteri
    (fun ci (cell : Cell.t) ->
      List.iter
        (fun pattern ->
          let nvars = Pattern.num_vars pattern in
          List.iter
            (fun (binding, covered) ->
              incr enumerated;
              let at = reserve_leaves t nvars in
              Array.fill t.leaves at nvars (-1);
              List.iter (fun (var, node) -> t.leaves.(at + var) <- node) binding;
              let bound = ref true in
              for i = at to at + nvars - 1 do
                if t.leaves.(i) < 0 then bound := false
              done;
              if !bound then begin
                let ncov = List.length covered in
                let at = reserve_covered t ncov in
                List.iteri (fun i u -> t.covered.(at + i) <- u) covered;
                close t ci ~leaves:nvars ~covered:ncov
              end)
            (enumerate_matches t.subject partition pattern v))
        cell.Cell.patterns)
    t.cells;
  t.first.(v) <- lo;
  t.stop.(v) <- t.count;
  t.enumerated.(v) <- !enumerated

(* The cell's index in [t.cells], or -1. By identity: the store resolves
   cell names through the session's own library. *)
let cell_index t (cell : Cell.t) =
  let rec find i =
    if i = Array.length t.cells then -1
    else if t.cells.(i) == cell then i
    else find (i + 1)
  in
  find 0

let valid t ~partition v nm =
  Array.length nm.candidates > 0
  && Array.for_all
       (fun c ->
         let ci = cell_index t c.cand_cell in
         ci >= 0
         && List.exists
              (fun p ->
                binds t.subject partition p v c.cand_leaves c.cand_covered)
              t.cells.(ci).Cell.patterns)
       nm.candidates

let add_matches t v nm =
  let lo = t.count in
  Array.iter
    (fun c ->
      let nl = Array.length c.cand_leaves in
      let at = reserve_leaves t nl in
      Array.blit c.cand_leaves 0 t.leaves at nl;
      let ncov = List.length c.cand_covered in
      let at = reserve_covered t ncov in
      List.iteri (fun i u -> t.covered.(at + i) <- u) c.cand_covered;
      close t (cell_index t c.cand_cell) ~leaves:nl ~covered:ncov)
    nm.candidates;
  t.first.(v) <- lo;
  t.stop.(v) <- t.count;
  t.enumerated.(v) <- nm.enumerated

let node_matches t v =
  let candidates =
    Array.init
      (t.stop.(v) - t.first.(v))
      (fun i ->
        let c = t.first.(v) + i in
        let l0 = t.leaf_first.(c) and c0 = t.cov_first.(c) in
        {
          cand_cell = t.cells.(t.cell.(c));
          cand_leaves = Array.sub t.leaves l0 (t.leaf_first.(c + 1) - l0);
          cand_covered =
            List.init (t.cov_first.(c + 1) - c0) (fun j -> t.covered.(c0 + j));
        })
  in
  { candidates; enumerated = t.enumerated.(v) }
