type t = {
  cokernel : Cube.t;
  kernel : Sop.t;
}

(* Classic recursive kernel enumeration (Brayton & McMullen).  [j] is the
   smallest variable allowed as the next co-kernel literal, preventing the
   same kernel from being produced along several literal orders. *)
let all f =
  let results = ref [] in
  let seen = Hashtbl.create 64 in
  let add cokernel kernel =
    (* Canonical cube lists are equal exactly when the kernels are. *)
    let key = Sop.cubes kernel in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      results := { cokernel; kernel } :: !results
    end
  in
  let literal_count g v =
    List.fold_left
      (fun acc c -> if Cube.has_var c v then acc + 1 else acc)
      0 (Sop.cubes g)
  in
  let rec kernels j g cokernel =
    if Sop.num_cubes g >= 2 && Sop.is_cube_free g then add cokernel g;
    (* Variables outside the support never appear twice: walk only the
       support bits at or above [j], in increasing order. *)
    let rest = ref (Sop.support g land lnot ((1 lsl j) - 1)) in
    while !rest <> 0 do
      let v = Cube.lowest_var !rest in
      rest := !rest land (!rest - 1);
      if literal_count g v >= 2 then begin
        (* Quotient by each phase of the literal that appears twice. *)
        List.iter
          (fun phase ->
            let c = Cube.lit v phase in
            let q, _ = Sop.divide_by_cube g c in
            if Sop.num_cubes q >= 2 then begin
              let lcc = Sop.largest_common_cube q in
              (* Skip when the largest common cube reuses an already-tried
                 variable: that kernel was found earlier. *)
              let reuses_smaller = Cube.support lcc land ((1 lsl v) - 1) <> 0 in
              if not reuses_smaller then begin
                let qfree = Sop.make_cube_free q in
                let full_co =
                  match Cube.inter cokernel c with
                  | Some base ->
                    (match Cube.inter base lcc with
                    | Some full -> Some full
                    | None -> None)
                  | None -> None
                in
                match full_co with
                | Some co -> kernels (v + 1) qfree co
                | None -> ()
              end
            end)
          [ true; false ]
      end
    done
  in
  if Sop.num_cubes f >= 2 then kernels 0 (Sop.make_cube_free f) Cube.universe;
  List.rev !results
