module Subject = Cals_netlist.Subject
module Cell = Cals_cell.Cell
module Pattern = Cals_cell.Pattern
module Library = Cals_cell.Library

(* A cell pattern flattened to pre-order, so that the enumeration walks
   it by index. Per pattern node: its operator, its parent's index ([-1]
   at the root), whether it is the parent's second operand, and for a
   gate its place among the covered gates. *)
type op = Var of int | Inv | Nand
type pnode = { op : op; up : int; second : bool; slot : int }
type shape = { cell : int; nodes : pnode array; nvars : int; ngates : int }

type table = {
  subject : Subject.t;
  library : Library.t;
  cells : Cell.t array;
  shapes : shape array array;
  width : int;
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

let shape_of cell pattern =
  let nodes = ref [] and next = ref 0 and gates = ref 0 in
  let rec fill q up second =
    let k = !next in
    incr next;
    let node op = nodes := { op; up; second; slot = !gates } :: !nodes in
    match q with
    | Pattern.Var i -> node (Var i)
    | Pattern.Inv q1 ->
      node Inv;
      incr gates;
      fill q1 k false
    | Pattern.Nand (q1, q2) ->
      node Nand;
      incr gates;
      fill q1 k false;
      fill q2 k true
  in
  fill pattern (-1) false;
  let nodes = Array.of_list (List.rev !nodes) in
  { cell; nodes; nvars = Pattern.num_vars pattern; ngates = !gates }

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
  let shapes =
    Array.mapi
      (fun i (c : Cell.t) -> Array.of_list (List.map (shape_of i) c.Cell.patterns))
      cells
  in
  {
    subject;
    library;
    cells;
    shapes;
    (* Every variable is a pattern node, so the widest pattern bounds the
       walk's four scratch arrays. *)
    width =
      Array.fold_left
        (Array.fold_left (fun m s -> Int.max m (Array.length s.nodes)))
        0 shapes;
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

let add_candidate t ~cell ~leaves ~nleaves ~covered ~ncovered =
  let c = t.count in
  let l0 = t.leaf_first.(c) and c0 = t.cov_first.(c) in
  t.leaves <- ensure t.leaves (l0 + nleaves);
  Array.blit leaves 0 t.leaves l0 nleaves;
  t.covered <- ensure t.covered (c0 + ncovered);
  Array.blit covered 0 t.covered c0 ncovered;
  t.cell <- ensure t.cell (c + 1);
  t.leaf_first <- ensure t.leaf_first (c + 2);
  t.cov_first <- ensure t.cov_first (c + 2);
  t.cell.(c) <- cell;
  t.leaf_first.(c + 1) <- l0 + nleaves;
  t.cov_first.(c + 1) <- c0 + ncovered;
  t.count <- c + 1

let truncate t count =
  Array.iteri
    (fun v stop ->
      if stop > count then begin
        t.first.(v) <- -1;
        t.stop.(v) <- -1;
        t.enumerated.(v) <- 0
      end)
    t.stop;
  t.count <- count

(* ---------------- Enumeration ---------------- *)

(* One backtracking walk over a shape's pattern nodes in pre-order. The
   root binds [root]; an internal pattern node descends only along a
   father edge of the partition; a variable binds anywhere, and one met
   again must land on the same node. A NAND tries its operands as
   [(a, b)], then, unless [a = b], as [(b, a)]; so bindings come out in
   the lexicographic order of these choices in pre-order, and covered
   gates in pre-order. The state is a walker's: per gate pattern node its
   operands [lo] and [hi], per variable its binding ([-1] while unbound;
   every walk unbinds what it bound, so a walker is reused as it stands),
   and per covered slot its gate. When [checking], the walk
   compares each variable and gate it binds with the stored candidate
   whose leaves start at [l0] and covered gates at [c0], so a wrong
   operand order is cut at its first node, and [found] ends it. *)
type walker = {
  t : table;
  father : int option array;
  mutable root : int;
  lo : int array;
  hi : int array;
  bind : int array;
  cov : int array;
  mutable shape : shape;
  mutable checking : bool;
  mutable l0 : int;
  mutable c0 : int;
  mutable found : bool;
  mutable bindings : int;  (** Complete bindings met. *)
}

let walker t ~(partition : Partition.t) =
  let scratch () = Array.make t.width (-1) in
  {
    t;
    father = partition.Partition.father;
    root = -1;
    lo = scratch ();
    hi = scratch ();
    bind = scratch ();
    cov = scratch ();
    shape = t.shapes.(0).(0);
    checking = false;
    l0 = 0;
    c0 = 0;
    found = false;
    bindings = 0;
  }

let complete w =
  let s = w.shape in
  let bound = ref true in
  for i = 0 to s.nvars - 1 do
    if w.bind.(i) < 0 then bound := false
  done;
  w.bindings <- w.bindings + 1;
  if !bound then
    if w.checking then w.found <- true
    else
      add_candidate w.t ~cell:s.cell ~leaves:w.bind ~nleaves:s.nvars
        ~covered:w.cov ~ncovered:s.ngates

let rec walk w k =
  let s = w.shape in
  if k = Array.length s.nodes then complete w
  else if not w.found then begin
    let n = s.nodes.(k) in
    let u =
      if n.up < 0 then w.root else if n.second then w.hi.(n.up) else w.lo.(n.up)
    in
    match n.op with
    | Var i ->
      let b = w.bind.(i) in
      if b = u then walk w (k + 1)
      else if b < 0 && ((not w.checking) || w.t.leaves.(w.l0 + i) = u)
      then begin
        w.bind.(i) <- u;
        walk w (k + 1);
        w.bind.(i) <- -1
      end
    | Inv | Nand ->
      if
        (n.up < 0
        ||
        match w.father.(u) with
        | Some f -> f = w.cov.(s.nodes.(n.up).slot)
        | None -> false)
        && ((not w.checking) || w.t.covered.(w.c0 + n.slot) = u)
      then begin
        w.cov.(n.slot) <- u;
        match (n.op, w.t.subject.Subject.gates.(u)) with
        | Inv, Subject.Inv a ->
          w.lo.(k) <- a;
          walk w (k + 1)
        | Nand, Subject.Nand2 (a, b) ->
          w.lo.(k) <- a;
          w.hi.(k) <- b;
          walk w (k + 1);
          if a <> b then begin
            w.lo.(k) <- b;
            w.hi.(k) <- a;
            walk w (k + 1)
          end
        | _, (Subject.Pi _ | Subject.Inv _ | Subject.Nand2 _) -> ()
      end
  end

let set_node t v ~first ~enumerated =
  t.first.(v) <- first;
  t.stop.(v) <- t.count;
  t.enumerated.(v) <- enumerated

(* Point [w] at node [v] for a fresh walk. *)
let start w v ~checking ~found =
  w.root <- v;
  w.checking <- checking;
  w.found <- found;
  w.bindings <- 0

let add_node w v =
  let t = w.t in
  start w v ~checking:false ~found:false;
  let first = t.count in
  Array.iter
    (Array.iter (fun s ->
         w.shape <- s;
         walk w 0))
    t.shapes;
  set_node t v ~first ~enumerated:w.bindings

(* Each candidate is walked with those of its cell's patterns that have
   its leaf and covered counts. *)
let add_stored w v ~first ~enumerated =
  let t = w.t in
  start w v ~checking:true ~found:(first < t.count);
  for c = first to t.count - 1 do
    if w.found then begin
      w.l0 <- t.leaf_first.(c);
      w.c0 <- t.cov_first.(c);
      w.found <- false;
      Array.iter
        (fun s ->
          if
            s.nvars = t.leaf_first.(c + 1) - w.l0
            && s.ngates = t.cov_first.(c + 1) - w.c0
          then begin
            w.shape <- s;
            walk w 0
          end)
        t.shapes.(t.cell.(c))
    end
  done;
  if w.found then set_node t v ~first ~enumerated;
  w.found
