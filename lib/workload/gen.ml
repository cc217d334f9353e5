module Rng = Cals_util.Rng
module Network = Cals_logic.Network
module Sop = Cals_logic.Sop
module Cube = Cals_logic.Cube

let random_cube rng ~inputs ~lits =
  let vars = Rng.sample rng (min lits inputs) inputs in
  Cube.of_literals (List.map (fun v -> (v, Rng.bool rng)) vars)

let pla ~rng ~inputs ~outputs ~products ?(literals_lo = 3) ?(literals_hi = 8)
    ?(terms_lo = 8) ?(terms_hi = 40) () =
  if inputs < 2 || inputs > Cube.max_vars then invalid_arg "Gen.pla: inputs";
  if outputs < 1 || products < 1 then invalid_arg "Gen.pla: sizes";
  let pool =
    Array.init products (fun _ ->
        let lits = Rng.range rng literals_lo (min literals_hi inputs) in
        random_cube rng ~inputs ~lits)
  in
  let pi_names = Array.init inputs (fun i -> Printf.sprintf "i%d" i) in
  let net = Network.create ~pi_names in
  let fanins = Array.init inputs (fun i -> Network.Pi i) in
  for o = 0 to outputs - 1 do
    let n_terms = Rng.range rng terms_lo (max terms_lo terms_hi) in
    let n_terms = min n_terms products in
    let picks = Rng.sample rng n_terms products in
    let sop = Sop.of_cubes (List.map (fun i -> pool.(i)) picks) in
    let id = Network.add_node net fanins sop in
    Network.set_output net (Printf.sprintf "o%d" o) (Network.Node id)
  done;
  net

let multilevel ~rng ~inputs ~outputs ~internal_nodes ?(fanins_lo = 2)
    ?(fanins_hi = 4) ?(cubes_lo = 2) ?(cubes_hi = 4) () =
  if inputs < 2 then invalid_arg "Gen.multilevel: inputs";
  let pi_names = Array.init inputs (fun i -> Printf.sprintf "i%d" i) in
  let net = Network.create ~pi_names in
  (* Every signal in creation order: the PIs, then each node as it is
     added. *)
  let signals = Array.make (inputs + max 0 internal_nodes) (Network.Pi 0) in
  for i = 0 to inputs - 1 do
    signals.(i) <- Network.Pi i
  done;
  let n_signals = ref inputs in
  (* Bias fanin choice toward recent signals so the circuit has depth and
     locality rather than being a flat fan-in cone. *)
  let pick_signal () =
    let n = !n_signals in
    let r = Rng.float rng 1.0 in
    let idx =
      if r < 0.6 then n - 1 - Rng.int rng (max 1 (n / 4))
      else Rng.int rng n
    in
    signals.(max 0 (min (n - 1) idx))
  in
  for _ = 1 to internal_nodes do
    let nf = Rng.range rng fanins_lo fanins_hi in
    (* Distinct fanins. *)
    let rec gather acc k =
      if k = 0 then acc
      else begin
        let s = pick_signal () in
        if List.mem s acc then gather acc k else gather (s :: acc) (k - 1)
      end
    in
    let fanins = Array.of_list (gather [] nf) in
    let nf = Array.length fanins in
    let n_cubes = Rng.range rng cubes_lo cubes_hi in
    let cubes =
      List.init n_cubes (fun _ ->
          let lits = Rng.range rng 1 nf in
          let vars = Rng.sample rng lits nf in
          Cube.of_literals (List.map (fun v -> (v, Rng.bool rng)) vars))
    in
    let sop = Sop.of_cubes cubes in
    (* Avoid degenerate constants. *)
    let sop = if Sop.is_one sop || Sop.is_zero sop then Sop.var 0 else sop in
    let id = Network.add_node net fanins sop in
    signals.(!n_signals) <- Network.Node id;
    incr n_signals
  done;
  let n = !n_signals in
  for o = 0 to outputs - 1 do
    (* Outputs tap the deepest signals, round-robin from the end. *)
    let s = signals.(n - 1 - (o mod max 1 (min n internal_nodes))) in
    Network.set_output net (Printf.sprintf "o%d" o) s
  done;
  net

let of_fuzz ~family ~seed ~inputs ~outputs ~size =
  let rng = Rng.create seed in
  match family with
  | `Pla -> pla ~rng ~inputs ~outputs ~products:size ()
  | `Multilevel -> multilevel ~rng ~inputs ~outputs ~internal_nodes:size ()
