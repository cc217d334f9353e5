(* Reference implementations kept as test oracles: the straightforward
   all-variable walks that Cube and Kernel replaced with set-bit walks, and
   the algebraic divisions that re-canonicalize every intermediate cube
   list, which Sop replaced with single passes over the canonical form.
   The properties in test_logic assert that the library returns the same
   lists, in the same order. *)

module Cube = Cals_logic.Cube
module Sop = Cals_logic.Sop
module Kernel = Cals_logic.Kernel

(* Every variable from [max_vars - 1] down to 0. *)
let literals (c : Cube.t) =
  let rec collect v acc =
    if v < 0 then acc
    else
      let bit = 1 lsl v in
      let acc =
        if c.pos land bit <> 0 then (v, true) :: acc
        else if c.neg land bit <> 0 then (v, false) :: acc
        else acc
      in
      collect (v - 1) acc
  in
  collect (Cube.max_vars - 1) []

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

let num_literals (c : Cube.t) = popcount c.pos + popcount c.neg

let eval64 c inputs =
  List.fold_left
    (fun acc (v, phase) ->
      let bits = if phase then inputs.(v) else Int64.lognot inputs.(v) in
      Int64.logand acc bits)
    Int64.minus_one (literals c)

(* Brayton & McMullen recursion over every variable, deduplicating on the
   kernels' literal lists. *)
let kernels f =
  let results = ref [] in
  let seen = Hashtbl.create 64 in
  let add cokernel kernel =
    let key = List.map literals (Sop.cubes kernel) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      results := { Kernel.cokernel; kernel } :: !results
    end
  in
  let literal_count g v =
    List.fold_left
      (fun acc c -> if Cube.has_var c v then acc + 1 else acc)
      0 (Sop.cubes g)
  in
  let rec go j g cokernel =
    if Sop.num_cubes g >= 2 && Sop.is_cube_free g then add cokernel g;
    for v = j to Cube.max_vars - 1 do
      if literal_count g v >= 2 then
        List.iter
          (fun phase ->
            let c = Cube.lit v phase in
            let q, _ = Sop.divide_by_cube g c in
            if Sop.num_cubes q >= 2 then begin
              let lcc = Sop.largest_common_cube q in
              let reuses_smaller =
                List.exists (fun (u, _) -> u < v) (literals lcc)
              in
              if not reuses_smaller then
                match
                  Option.bind (Cube.inter cokernel c) (fun base ->
                      Cube.inter base lcc)
                with
                | Some co -> go (v + 1) (Sop.make_cube_free q) co
                | None -> ()
            end)
          [ true; false ]
    done
  in
  if Sop.num_cubes f >= 2 then go 0 (Sop.make_cube_free f) Cube.universe;
  List.rev !results

(* Quotients and remainder each rebuilt with [Sop.of_cubes]. *)
let divide_by_cube t c =
  let q, r =
    List.fold_left
      (fun (q, r) cu ->
        match Cube.divide cu c with
        | Some quot -> (quot :: q, r)
        | None -> (q, cu :: r))
      ([], []) (Sop.cubes t)
  in
  (Sop.of_cubes q, Sop.of_cubes r)

(* Weak division: intersect the quotients by every divisor cube, then
   drop the cubes of [quotient * d] from [t]. *)
let divide t d =
  match Sop.cubes d with
  | [] -> invalid_arg "Sop.divide: divisor is zero"
  | first :: rest ->
    let quotient_cubes c = Sop.cubes (fst (divide_by_cube t c)) in
    let quotient =
      List.fold_left
        (fun acc c ->
          let qi = quotient_cubes c in
          List.filter (fun cu -> List.exists (Cube.equal cu) qi) acc)
        (quotient_cubes first) rest
      |> Sop.of_cubes
    in
    if Sop.is_zero quotient then (Sop.zero, t)
    else
      let covered = Sop.cubes (Sop.product quotient d) in
      let remainder =
        List.filter
          (fun c -> not (List.exists (Cube.equal c) covered))
          (Sop.cubes t)
      in
      (quotient, Sop.of_cubes remainder)
