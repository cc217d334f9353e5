type t = Cube.t list
(* Invariant: sorted by Cube.compare, no cube covered by another. *)

let zero = []
let one = [ Cube.universe ]

let of_cubes cubes =
  let sorted = List.sort_uniq Cube.compare cubes in
  (* Drop any cube covered by another (single-cube containment). *)
  let keep c =
    not (List.exists (fun d -> (not (Cube.equal c d)) && Cube.covers d c) sorted)
  in
  List.filter keep sorted

let cubes t = t
let num_cubes = List.length
let num_literals t = List.fold_left (fun acc c -> acc + Cube.num_literals c) 0 t
let support t = List.fold_left (fun acc c -> acc lor Cube.support c) 0 t

let support_list t =
  let mask = support t in
  let rec go v acc =
    if v < 0 then acc else go (v - 1) (if mask land (1 lsl v) <> 0 then v :: acc else acc)
  in
  go (Cube.max_vars - 1) []

let is_zero t = t = []
let is_one t = match t with [ c ] -> Cube.is_universe c | [] | _ :: _ -> false
let lit v phase = [ Cube.lit v phase ]
let var v = lit v true
let sum a b = of_cubes (a @ b)

let product a b =
  let cubes =
    List.concat_map
      (fun ca -> List.filter_map (fun cb -> Cube.inter ca cb) b)
      a
  in
  of_cubes cubes

let cofactor t v phase =
  (* A cube carrying the opposite literal contradicts the assignment and is
     dropped; otherwise any literal on [v] is now satisfied and removed. *)
  let opposite = Cube.lit v (not phase) in
  t
  |> List.filter_map (fun c ->
         if Cube.covers opposite c then None else Some (Cube.remove_var c v))
  |> of_cubes

let map_vars f t =
  (* A non-injective renaming can merge literals (s AND s = s) or empty a
     cube (s AND s' = 0); both are handled, so aliased fanins are safe. *)
  t
  |> List.filter_map (fun c ->
         Cube.of_literals_merged
           (List.map (fun (v, ph) -> (f v, ph)) (Cube.literals c)))
  |> of_cubes

(* Both divisions trust the invariant of [t] instead of re-canonicalizing
   (DESIGN.md §4s). Every cube of [t] is a consistent literal set, [t] is
   sorted by [Cube.compare] and no cube of [t] covers another.

   By one cube [c]: the divisible cubes are exactly those containing [c],
   and [cu -> cu / c] removes the same literals from each, so it is
   injective ([cu] is [cu / c] with [c]'s literals added back) and keeps
   containment both ways: the quotients are distinct and
   containment-free. [Cube.compare] orders by
   the highest differing bit of [pos], then of [neg]; removing bits that
   two cubes share never changes it, so the quotients come out in order.
   The remainder is a subsequence of [t]. Neither needs [of_cubes].

   By [d = d_1 + ... + d_m]: [q] is a quotient by [d_j] exactly when [q]
   shares no literal with [d_j] and the product cube [q d_j] (the union
   of their literals) is a cube of [t], which is then the cube it came
   from. So the weak-division quotient is the quotients by [d_1] that
   pass that test for every other [d_j]: a subsequence of the sorted
   quotients by [d_1], already canonical. Every product [q * d_j] is the
   cube of [t] the test found, and [t] is containment-free, so
   [product q d] is that set of cubes and the remainder is [t] minus
   them, in order. With one divisor cube this is [divide_by_cube]. *)
let divide_by_cube t c =
  List.partition_map
    (fun cu ->
      match Cube.divide cu c with Some q -> Either.Left q | None -> Either.Right cu)
    t

(* Index of [c] in the sorted array [a], or -1. *)
let find a c =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let k = Cube.compare a.(mid) c in
      if k = 0 then mid else if k < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let divide t d =
  match d with
  | [] -> invalid_arg "Sop.divide: divisor is zero"
  | [ c ] -> divide_by_cube t c
  | first :: rest ->
    let cubes = Array.of_list t in
    let covered = Array.make (Array.length cubes) false in
    (* The index of [q dj] in [cubes] when [q] is a quotient by [dj], else
       -1. *)
    let index (q : Cube.t) (dj : Cube.t) =
      if q.pos land dj.pos <> 0 || q.neg land dj.neg <> 0 then -1
      else match Cube.inter q dj with Some p -> find cubes p | None -> -1
    in
    let quotient = ref [] in
    Array.iteri
      (fun i cu ->
        match Cube.divide cu first with
        | Some q when List.for_all (fun dj -> index q dj >= 0) rest ->
          quotient := q :: !quotient;
          covered.(i) <- true;
          List.iter (fun dj -> covered.(index q dj) <- true) rest
        | Some _ | None -> ())
      cubes;
    if !quotient = [] then (zero, t)
    else (List.rev !quotient, List.filteri (fun i _ -> not covered.(i)) t)

let largest_common_cube = function
  | [] -> Cube.universe
  | first :: rest -> List.fold_left Cube.common first rest

let make_cube_free t =
  let c = largest_common_cube t in
  if Cube.is_universe c then t
  else
    let q, _ = divide_by_cube t c in
    q

let is_cube_free t = Cube.is_universe (largest_common_cube t)

let pick_var t =
  (* Most frequent variable in the support — good Shannon splitting var. *)
  let counts = Array.make Cube.max_vars 0 in
  List.iter
    (fun c ->
      List.iter (fun (v, _) -> counts.(v) <- counts.(v) + 1) (Cube.literals c))
    t;
  let best = ref (-1) in
  Array.iteri (fun v n -> if n > 0 && (!best < 0 || n > counts.(!best)) then best := v) counts;
  !best

exception Too_big

let complement ?(max_cubes = 512) t =
  let rec go t =
    if is_zero t then one
    else if List.exists Cube.is_universe t then zero
    else
      match t with
      | [ c ] ->
        (* De Morgan on a single cube. *)
        of_cubes (List.map (fun (v, ph) -> Cube.lit v (not ph)) (Cube.literals c))
      | _ ->
        let v = pick_var t in
        let fpos = go (cofactor t v true) and fneg = go (cofactor t v false) in
        let r = sum (product (var v) fpos) (product (lit v false) fneg) in
        if num_cubes r > max_cubes then raise Too_big;
        r
  in
  match go t with r -> Some r | exception Too_big -> None

let split_on_var t v =
  let qpos = ref [] and qneg = ref [] and free = ref [] in
  List.iter
    (fun c ->
      if Cube.covers (Cube.lit v true) c then qpos := Cube.remove_var c v :: !qpos
      else if Cube.covers (Cube.lit v false) c then qneg := Cube.remove_var c v :: !qneg
      else free := c :: !free)
    t;
  (of_cubes !qpos, of_cubes !qneg, of_cubes !free)

let can_substitute t v g =
  let max_cubes = 512 in
  let _, qneg, _ = split_on_var t v in
  (is_zero qneg || complement ~max_cubes g <> None)
  && num_cubes g * num_cubes t <= max_cubes

let substitute t v g =
  let qpos, qneg, free = split_on_var t v in
  let positive = product g qpos in
  let negative =
    if is_zero qneg then zero
    else
      match complement g with
      | Some gc -> product gc qneg
      | None -> invalid_arg "Sop.substitute: complement too large"
  in
  sum (sum positive negative) free

let eval64 t inputs =
  List.fold_left (fun acc c -> Int64.logor acc (Cube.eval64 c inputs)) 0L t

let equal a b = List.length a = List.length b && List.for_all2 Cube.equal a b

let to_string ?names t =
  if is_zero t then "<0>"
  else String.concat " + " (List.map (Cube.to_string ?names) t)
