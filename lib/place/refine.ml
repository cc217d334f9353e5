type stats = {
  swaps : int;
  passes : int;
  hpwl_before : float;
  hpwl_after : float;
}

(* Incremental HPWL bookkeeping: per net, recompute its bbox from scratch
   (nets are small on average; this keeps the code simple and correct). *)
let net_hpwl (hg : Hypergraph.t) positions ni =
  Hypergraph.net_hpwl positions hg.Hypergraph.nets.(ni)

let run ?(max_passes = 3) ~(hypergraph : Hypergraph.t) ~positions ~widths () =
  let hg = hypergraph in
  let n = Hypergraph.num_nodes hg in
  if Array.length positions <> n || Array.length widths <> n then
    invalid_arg "Refine.run: length mismatch";
  let hpwl_before = Hypergraph.hpwl hg positions in
  (* Node -> incident nets. *)
  let degree = Array.make n 0 in
  Array.iter
    (fun net -> Array.iter (fun v -> degree.(v) <- degree.(v) + 1) net)
    hg.Hypergraph.nets;
  let incident = Array.map (fun d -> Array.make d 0) degree in
  let fill = Array.make n 0 in
  Array.iteri
    (fun ni net ->
      Array.iter
        (fun v ->
          incident.(v).(fill.(v)) <- ni;
          fill.(v) <- fill.(v) + 1)
        net)
    hg.Hypergraph.nets;
  let movable v = hg.Hypergraph.fixed.(v) = None in
  let cost_around a b =
    (* HPWL of the nets touching either endpoint. *)
    let seen = Hashtbl.create 8 in
    let add acc ni =
      if Hashtbl.mem seen ni then acc
      else begin
        Hashtbl.add seen ni ();
        acc +. net_hpwl hg positions ni
      end
    in
    let acc = Array.fold_left add 0.0 incident.(a) in
    Array.fold_left add acc incident.(b)
  in
  let swaps = ref 0 in
  let passes = ref 0 in
  let improved = ref true in
  (* Candidate partners: cells on the same net plus cells one net away
     (through another pin), restricted to small nets to stay local. *)
  let small ni = Array.length hg.Hypergraph.nets.(ni) <= 16 in
  let try_swap a b =
    if b <> a && movable b && widths.(a) = widths.(b) then begin
      let before = cost_around a b in
      let pa = positions.(a) and pb = positions.(b) in
      positions.(a) <- pb;
      positions.(b) <- pa;
      let after = cost_around a b in
      if after < before -. 1e-9 then begin
        incr swaps;
        improved := true
      end
      else begin
        positions.(a) <- pa;
        positions.(b) <- pb
      end
    end
  in
  while !improved && !passes < max_passes do
    incr passes;
    improved := false;
    for a = 0 to n - 1 do
      if movable a then
        Array.iter
          (fun ni ->
            if small ni then
              Array.iter
                (fun b ->
                  try_swap a b;
                  if b <> a then
                    Array.iter
                      (fun nj ->
                        if nj <> ni && small nj then
                          Array.iter (fun c -> try_swap a c) hg.Hypergraph.nets.(nj))
                      incident.(b))
                hg.Hypergraph.nets.(ni))
          incident.(a)
    done
  done;
  {
    swaps = !swaps;
    passes = !passes;
    hpwl_before;
    hpwl_after = Hypergraph.hpwl hg positions;
  }
