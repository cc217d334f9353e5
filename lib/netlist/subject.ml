type gate =
  | Pi of int
  | Inv of int
  | Nand2 of int * int

type t = {
  gates : gate array;
  pi_names : string array;
  outputs : (string * int) array;
}

(* Growable gate vector; OCaml 5.1 has no Dynarray yet. *)
type builder = {
  mutable arr : gate array;
  mutable len : int;
  strash : (gate, int) Hashtbl.t;
  mutable pis : string list;  (** reversed *)
  mutable n_pis : int;
  pi_seen : (string, unit) Hashtbl.t;
  mutable outs : (string * int) list;  (** reversed *)
  out_seen : (string, unit) Hashtbl.t;
  mutable const0 : int option;
}

let builder () =
  {
    arr = Array.make 64 (Pi 0);
    len = 0;
    strash = Hashtbl.create 1024;
    pis = [];
    n_pis = 0;
    pi_seen = Hashtbl.create 64;
    outs = [];
    out_seen = Hashtbl.create 64;
    const0 = None;
  }

let push b g =
  if b.len = Array.length b.arr then begin
    let narr = Array.make (2 * b.len) (Pi 0) in
    Array.blit b.arr 0 narr 0 b.len;
    b.arr <- narr
  end;
  b.arr.(b.len) <- g;
  b.len <- b.len + 1;
  b.len - 1

let check_ref b v =
  if v < 0 || v >= b.len then invalid_arg "Subject: dangling node reference"

let add_pi b name =
  if Hashtbl.mem b.pi_seen name then invalid_arg ("Subject.add_pi: duplicate " ^ name);
  Hashtbl.add b.pi_seen name ();
  b.pis <- name :: b.pis;
  let idx = b.n_pis in
  b.n_pis <- b.n_pis + 1;
  push b (Pi idx)

let hashed b g =
  match Hashtbl.find_opt b.strash g with
  | Some id -> id
  | None ->
    let id = push b g in
    Hashtbl.add b.strash g id;
    id

let add_inv b a =
  check_ref b a;
  hashed b (Inv a)

let add_nand b a0 a1 =
  check_ref b a0;
  check_ref b a1;
  let lo, hi = if a0 <= a1 then a0, a1 else a1, a0 in
  hashed b (Nand2 (lo, hi))

let add_const b value =
  let zero =
    match b.const0 with
    | Some id -> id
    | None ->
      let id = add_pi b "__const0" in
      b.const0 <- Some id;
      id
  in
  if value then add_inv b zero else zero

let set_output b name v =
  check_ref b v;
  if Hashtbl.mem b.out_seen name then
    invalid_arg ("Subject.set_output: duplicate " ^ name);
  Hashtbl.add b.out_seen name ();
  b.outs <- (name, v) :: b.outs

let freeze b =
  {
    gates = Array.sub b.arr 0 b.len;
    pi_names = Array.of_list (List.rev b.pis);
    outputs = Array.of_list (List.rev b.outs);
  }

let num_nodes t = Array.length t.gates
let num_pis t = Array.length t.pi_names

let count pred t =
  Array.fold_left (fun acc g -> if pred g then acc + 1 else acc) 0 t.gates

let num_nand2 = count (function Nand2 _ -> true | Pi _ | Inv _ -> false)
let num_inv = count (function Inv _ -> true | Pi _ | Nand2 _ -> false)
let num_gates t = num_nand2 t + num_inv t

let fanins = function
  | Pi _ -> []
  | Inv a -> [ a ]
  | Nand2 (a, b) -> if a = b then [ a ] else [ a; b ]

let fanouts t =
  let fo = Array.make (num_nodes t) [] in
  for v = num_nodes t - 1 downto 0 do
    List.iter (fun u -> fo.(u) <- v :: fo.(u)) (fanins t.gates.(v))
  done;
  fo

let output_refs t =
  let refs = Array.make (num_nodes t) 0 in
  Array.iter (fun (_, v) -> refs.(v) <- refs.(v) + 1) t.outputs;
  refs

(* Counted straight off the gates: [List.length] of each [fanouts] entry
   plus the output references, without building the lists. *)
let fanout_counts t =
  let counts = output_refs t in
  Array.iter
    (function
      | Pi _ -> ()
      | Inv a -> counts.(a) <- counts.(a) + 1
      | Nand2 (a, b) ->
        counts.(a) <- counts.(a) + 1;
        if b <> a then counts.(b) <- counts.(b) + 1)
    t.gates;
  counts

let simulate t pi_vectors =
  if Array.length pi_vectors <> num_pis t then invalid_arg "Subject.simulate";
  let values = Array.make (num_nodes t) 0L in
  Array.iteri
    (fun v g ->
      values.(v) <-
        (match g with
        | Pi idx -> pi_vectors.(idx)
        | Inv a -> Int64.lognot values.(a)
        | Nand2 (a, b) -> Int64.lognot (Int64.logand values.(a) values.(b))))
    t.gates;
  Array.map (fun (_, v) -> values.(v)) t.outputs

let random_vectors rng t =
  Array.init (num_pis t) (fun i ->
      (* __const0 must stay 0 in every vector. *)
      if t.pi_names.(i) = "__const0" then 0L else Cals_util.Rng.bits64 rng)

let simulate_one t assignment =
  let stimulus = Array.map (fun b -> if b then -1L else 0L) assignment in
  Array.map (fun v -> Int64.logand v 1L <> 0L) (simulate t stimulus)
