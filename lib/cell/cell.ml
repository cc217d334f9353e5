type t = {
  name : string;
  area : float;
  width_sites : int;
  patterns : Pattern.t list;
  input_cap_pf : float;
  intrinsic_ns : float;
  drive_kohm : float;
}

let num_inputs t =
  match t.patterns with
  | [] -> 0
  | p :: _ -> Pattern.num_vars p

(* Exhaustive truth table as an int; arity is small (<= 5). *)
let truth_table p =
  let n = Pattern.num_vars p in
  assert (n <= 5);
  let bits = ref 0 in
  for row = 0 to (1 lsl n) - 1 do
    let inputs = Array.init n (fun i -> row land (1 lsl i) <> 0) in
    if Pattern.eval p inputs then bits := !bits lor (1 lsl row)
  done;
  !bits

let make ~name ~width_sites ~site_width ~row_height ~input_cap_pf ~intrinsic_ns
    ~drive_kohm patterns =
  (match patterns with
  | [] -> invalid_arg (name ^ ": cell needs at least one pattern")
  | first :: rest ->
    List.iter
      (fun p ->
        match Pattern.validate p with
        | Ok () -> ()
        | Error msg -> invalid_arg (name ^ ": " ^ msg))
      patterns;
    let arity = Pattern.num_vars first and tt = truth_table first in
    List.iter
      (fun p ->
        if Pattern.num_vars p <> arity then
          invalid_arg (name ^ ": patterns disagree on arity");
        if truth_table p <> tt then
          invalid_arg (name ^ ": patterns disagree on function"))
      rest);
  {
    name;
    area = float_of_int width_sites *. site_width *. row_height;
    width_sites;
    patterns;
    input_cap_pf;
    intrinsic_ns;
    drive_kohm;
  }

let eval64 t inputs =
  match t.patterns with
  | [] -> invalid_arg "Cell.eval64: no pattern"
  | p :: _ -> Pattern.eval64 p inputs

let delay_ns t ~load_pf = t.intrinsic_ns +. (t.drive_kohm *. load_pf)
