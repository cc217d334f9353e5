type t =
  | Lit of int * bool
  | And of t list
  | Or of t list
  | Const of bool

let flatten_and fs =
  List.concat_map (function And gs -> gs | (Lit _ | Or _ | Const _) as f -> [ f ]) fs

let flatten_or fs =
  List.concat_map (function Or gs -> gs | (Lit _ | And _ | Const _) as f -> [ f ]) fs

let mk_and fs =
  match flatten_and fs with [] -> Const true | [ f ] -> f | fs -> And fs

let mk_or fs =
  match flatten_or fs with [] -> Const false | [ f ] -> f | fs -> Or fs

let of_cube c =
  mk_and (List.map (fun (v, ph) -> Lit (v, ph)) (Cube.literals c))

(* Most frequent literal — the quick-factor fallback divisor. *)
let best_literal f =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun lit ->
          Hashtbl.replace counts lit
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts lit)))
        (Cube.literals c))
    (Sop.cubes f);
  Hashtbl.fold
    (fun lit n best ->
      match best with
      | Some (_, bn) when bn >= n -> best
      | Some _ | None -> if n >= 2 then Some (lit, n) else best)
    counts None

let rec factor f =
  if Sop.is_zero f then Const false
  else if Sop.is_one f then Const true
  else
    match Sop.cubes f with
    | [ c ] -> of_cube c
    | _ -> (
      (* Prefer a kernel divisor; otherwise the most common literal. The
         winning kernel's division from scoring is the one applied. *)
      let division =
        let score k =
          let ((q, _) as qr) = Sop.divide f k.Kernel.kernel in
          ((Sop.num_cubes q - 1) * (Sop.num_literals k.Kernel.kernel - 1), qr)
        in
        let best =
          List.fold_left
            (fun acc k ->
              let s, qr = score k in
              match acc with
              | Some (_, _, bs) when bs >= s -> acc
              | Some _ | None -> if s > 0 then Some (k.Kernel.kernel, qr, s) else acc)
            None (Kernel.all f)
        in
        match best with
        | Some (d, qr, _) -> Some (d, qr)
        | None -> (
          match best_literal f with
          | Some ((v, ph), _) ->
            let d = Sop.lit v ph in
            Some (d, Sop.divide f d)
          | None -> None)
      in
      match division with
      | None -> mk_or (List.map of_cube (Sop.cubes f))
      | Some (d, (q, r)) ->
        if Sop.is_zero q then mk_or (List.map of_cube (Sop.cubes f))
        else begin
          (* f = d*q + r; factor the three pieces recursively. *)
          let fd = factor d and fq = factor q in
          let dq = mk_and [ fd; fq ] in
          if Sop.is_zero r then dq else mk_or [ dq; factor r ]
        end)

let rec num_literals = function
  | Lit _ -> 1
  | Const _ -> 0
  | And fs | Or fs -> List.fold_left (fun acc f -> acc + num_literals f) 0 fs

let rec eval64 t inputs =
  match t with
  | Lit (v, ph) -> if ph then inputs.(v) else Int64.lognot inputs.(v)
  | Const b -> if b then Int64.minus_one else 0L
  | And fs ->
    List.fold_left (fun acc f -> Int64.logand acc (eval64 f inputs)) Int64.minus_one fs
  | Or fs -> List.fold_left (fun acc f -> Int64.logor acc (eval64 f inputs)) 0L fs
