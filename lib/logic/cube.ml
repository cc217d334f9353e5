type t = {
  pos : int;
  neg : int;
}

let max_vars = 60
let universe = { pos = 0; neg = 0 }

let check_var v =
  if v < 0 || v >= max_vars then invalid_arg "Cube: variable out of range"

let lit v phase =
  check_var v;
  if phase then { pos = 1 lsl v; neg = 0 } else { pos = 0; neg = 1 lsl v }

let of_literals lits =
  List.fold_left
    (fun c (v, phase) ->
      check_var v;
      let bit = 1 lsl v in
      if (c.pos lor c.neg) land bit <> 0 then
        invalid_arg "Cube.of_literals: duplicate or contradictory literal";
      if phase then { c with pos = c.pos lor bit } else { c with neg = c.neg lor bit })
    universe lits

let of_literals_merged lits =
  let rec go c = function
    | [] -> Some c
    | (v, phase) :: rest ->
      check_var v;
      let bit = 1 lsl v in
      if (if phase then c.neg else c.pos) land bit <> 0 then None
      else
        go
          (if phase then { c with pos = c.pos lor bit }
           else { c with neg = c.neg lor bit })
          rest
  in
  go universe lits

(* Index of the lowest set bit of [s] (nonzero), by binary search. *)
let lowest_var s =
  let b = s land -s in
  let v = if b land 0xFFFFFFFF = 0 then 32 else 0 in
  let v = if (b lsr v) land 0xFFFF = 0 then v + 16 else v in
  let v = if (b lsr v) land 0xFF = 0 then v + 8 else v in
  let v = if (b lsr v) land 0xF = 0 then v + 4 else v in
  let v = if (b lsr v) land 0x3 = 0 then v + 2 else v in
  if (b lsr v) land 0x1 = 0 then v + 1 else v

(* Walks only the set support bits, lowest first. *)
let literals c =
  let rec collect s =
    if s = 0 then []
    else
      let v = lowest_var s in
      (v, c.pos land (1 lsl v) <> 0) :: collect (s land (s - 1))
  in
  collect (c.pos lor c.neg)

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n land (n - 1)) (acc + 1) in
  go n 0

let num_literals c = popcount c.pos + popcount c.neg
let support c = c.pos lor c.neg
let has_var c v = support c land (1 lsl v) <> 0
let is_universe c = c.pos = 0 && c.neg = 0

let inter a b =
  let pos = a.pos lor b.pos and neg = a.neg lor b.neg in
  if pos land neg <> 0 then None else Some { pos; neg }

let covers c d = c.pos land lnot d.pos = 0 && c.neg land lnot d.neg = 0

let divide c d =
  if covers d c then Some { pos = c.pos land lnot d.pos; neg = c.neg land lnot d.neg }
  else None

let remove_var c v =
  let bit = lnot (1 lsl v) in
  { pos = c.pos land bit; neg = c.neg land bit }

let common a b = { pos = a.pos land b.pos; neg = a.neg land b.neg }

let eval c inputs =
  let ok = ref true and s = ref (c.pos lor c.neg) in
  while !s <> 0 do
    let v = lowest_var !s in
    if inputs.(v) <> (c.pos land (1 lsl v) <> 0) then ok := false;
    s := !s land (!s - 1)
  done;
  !ok

let eval64 c inputs =
  let acc = ref Int64.minus_one and s = ref (c.pos lor c.neg) in
  while !s <> 0 do
    let v = lowest_var !s in
    let x = inputs.(v) in
    acc := Int64.logand !acc (if c.pos land (1 lsl v) <> 0 then x else Int64.lognot x);
    s := !s land (!s - 1)
  done;
  !acc

let compare a b =
  match Int.compare a.pos b.pos with 0 -> Int.compare a.neg b.neg | c -> c

let equal a b = a.pos = b.pos && a.neg = b.neg

let to_string ?names c =
  if is_universe c then "<1>"
  else
    literals c
    |> List.map (fun (v, phase) ->
           let base =
             match names with
             | Some arr when v < Array.length arr -> arr.(v)
             | Some _ | None -> Printf.sprintf "x%d" v
           in
           if phase then base else base ^ "'")
    |> String.concat " "
