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

let divide_by_cube t c =
  let q, r =
    List.fold_left
      (fun (q, r) cu ->
        match Cube.divide cu c with
        | Some quot -> (quot :: q, r)
        | None -> (q, cu :: r))
      ([], []) t
  in
  (of_cubes q, of_cubes r)

let divide t d =
  match d with
  | [] -> invalid_arg "Sop.divide: divisor is zero"
  | first :: rest ->
    let q0, _ = divide_by_cube t first in
    let quotient =
      List.fold_left
        (fun acc c ->
          let qi, _ = divide_by_cube t c in
          (* Intersection of cube sets. *)
          List.filter (fun cu -> List.exists (Cube.equal cu) qi) acc)
        q0 rest
    in
    let quotient = of_cubes quotient in
    if is_zero quotient then (zero, t)
    else begin
      let covered = product quotient d in
      let remainder =
        List.filter (fun c -> not (List.exists (Cube.equal c) covered)) t
      in
      (quotient, of_cubes remainder)
    end

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

let can_substitute ?(max_cubes = 512) t v g =
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
