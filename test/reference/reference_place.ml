(* The list-based recursive bisection and FM bipartition that
   Cals_place.Bisect and Cals_place.Fm replaced with flat kernels. Kept
   as written, bar the telemetry, as the oracle the flat kernels must
   reproduce bit for bit. *)

module Geom = Cals_util.Geom
module Floorplan = Cals_place.Floorplan
module Hypergraph = Cals_place.Hypergraph

type problem = {
  weights : int array;
  nets : int array array;
  locked : int option array;
}

let cut_size p side =
  Array.fold_left
    (fun acc net ->
      let has0 = Array.exists (fun v -> side.(v) = 0) net in
      let has1 = Array.exists (fun v -> side.(v) = 1) net in
      if has0 && has1 then acc + 1 else acc)
    0 p.nets

(* Doubly-linked gain buckets over a fixed gain range. *)
type buckets = {
  offset : int;
  head : int array;  (** head.(g + offset) = first node or -1. *)
  prev : int array;
  next : int array;
  gain : int array;
  in_bucket : bool array;
  mutable max_gain : int;  (** Upper bound on the best non-empty bucket. *)
}

let buckets_create n max_deg =
  {
    offset = max_deg;
    head = Array.make ((2 * max_deg) + 1) (-1);
    prev = Array.make n (-1);
    next = Array.make n (-1);
    gain = Array.make n 0;
    in_bucket = Array.make n false;
    max_gain = -max_deg;
  }

let bucket_insert b v g =
  let idx = g + b.offset in
  b.gain.(v) <- g;
  b.prev.(v) <- -1;
  b.next.(v) <- b.head.(idx);
  if b.head.(idx) >= 0 then b.prev.(b.head.(idx)) <- v;
  b.head.(idx) <- v;
  b.in_bucket.(v) <- true;
  if g > b.max_gain then b.max_gain <- g

let bucket_remove b v =
  if b.in_bucket.(v) then begin
    let idx = b.gain.(v) + b.offset in
    if b.prev.(v) >= 0 then b.next.(b.prev.(v)) <- b.next.(v)
    else b.head.(idx) <- b.next.(v);
    if b.next.(v) >= 0 then b.prev.(b.next.(v)) <- b.prev.(v);
    b.in_bucket.(v) <- false
  end

let bucket_update b v g =
  if b.in_bucket.(v) then begin
    bucket_remove b v;
    bucket_insert b v g
  end

(* Pop the best node satisfying [ok]; returns -1 when none. *)
let bucket_best b ok =
  let rec scan g =
    if g + b.offset < 0 then -1
    else begin
      let rec walk v = if v < 0 then -1 else if ok v then v else walk b.next.(v) in
      match walk b.head.(g + b.offset) with
      | -1 -> scan (g - 1)
      | v ->
        b.max_gain <- g;
        v
    end
  in
  scan b.max_gain

let max_passes = 8
let balance_tolerance = 0.1 (* either side may hold 60 % of the weight *)

(* Initial: locked nodes first, then randomized greedy fill of the
   lighter side. *)
let initial_split ~rng p =
  let n = Array.length p.weights in
  let side = Array.make n 0 in
  let side_weight = [| 0; 0 |] in
  let order = Array.init n (fun i -> i) in
  Cals_util.Rng.shuffle rng order;
  Array.iteri
    (fun i lock ->
      match lock with
      | Some s ->
        side.(i) <- s;
        side_weight.(s) <- side_weight.(s) + p.weights.(i)
      | None -> ())
    p.locked;
  Array.iter
    (fun i ->
      match p.locked.(i) with
      | Some _ -> ()
      | None ->
        let s = if side_weight.(0) <= side_weight.(1) then 0 else 1 in
        side.(i) <- s;
        side_weight.(s) <- side_weight.(s) + p.weights.(i))
    order;
  side

let bipartition ~rng p =
  let n = Array.length p.weights in
  let total_weight = Array.fold_left ( + ) 0 p.weights in
  let side = initial_split ~rng p in
  let side_weight = [| 0; 0 |] in
  Array.iteri
    (fun v s -> side_weight.(s) <- side_weight.(s) + p.weights.(v))
    side;
  (* Node -> incident net ids. *)
  let degree = Array.make n 0 in
  Array.iter (fun net -> Array.iter (fun v -> degree.(v) <- degree.(v) + 1) net) p.nets;
  let incident = Array.map (fun d -> Array.make d 0) degree in
  let fill = Array.make n 0 in
  Array.iteri
    (fun ni net ->
      Array.iter
        (fun v ->
          incident.(v).(fill.(v)) <- ni;
          fill.(v) <- fill.(v) + 1)
        net)
    p.nets;
  let max_deg = Array.fold_left max 1 degree in
  let counts = Array.make_matrix (Array.length p.nets) 2 0 in
  let recount () =
    Array.iteri
      (fun ni net ->
        counts.(ni).(0) <- 0;
        counts.(ni).(1) <- 0;
        Array.iter (fun v -> counts.(ni).(side.(v)) <- counts.(ni).(side.(v)) + 1) net)
      p.nets
  in
  let node_gain v =
    let s = side.(v) in
    Array.fold_left
      (fun acc ni ->
        let f = counts.(ni).(s) and t = counts.(ni).(1 - s) in
        let acc = if f = 1 then acc + 1 else acc in
        if t = 0 then acc - 1 else acc)
      0 incident.(v)
  in
  let limit =
    int_of_float ((0.5 +. balance_tolerance) *. float_of_int total_weight)
  in
  let balanced_after v =
    let s = side.(v) in
    side_weight.(1 - s) + p.weights.(v) <= max limit (p.weights.(v))
  in
  let current_cut () =
    Array.fold_left
      (fun acc c -> if c.(0) > 0 && c.(1) > 0 then acc + 1 else acc)
      0 counts
  in
  let pass () =
    recount ();
    let b = buckets_create n max_deg in
    let locked_now = Array.make n false in
    Array.iteri
      (fun v lock ->
        match lock with
        | Some _ -> locked_now.(v) <- true
        | None -> bucket_insert b v (node_gain v))
      p.locked;
    let start_cut = current_cut () in
    let best_cut = ref start_cut and best_prefix = ref 0 in
    let moves = ref [] and nmoves = ref 0 in
    let cut = ref start_cut in
    let continue = ref true in
    while !continue do
      let v = bucket_best b (fun v -> (not locked_now.(v)) && balanced_after v) in
      if v < 0 then continue := false
      else begin
        bucket_remove b v;
        locked_now.(v) <- true;
        let s = side.(v) in
        let t = 1 - s in
        (* Gain updates around the move (standard FM increments). *)
        Array.iter
          (fun ni ->
            let net = p.nets.(ni) in
            let sc_old = counts.(ni).(s) in
            let tc = counts.(ni).(t) in
            if tc = 0 then
              Array.iter
                (fun u ->
                  if (not locked_now.(u)) && b.in_bucket.(u) then
                    bucket_update b u (b.gain.(u) + 1))
                net
            else if tc = 1 then
              Array.iter
                (fun u ->
                  if side.(u) = t && (not locked_now.(u)) && b.in_bucket.(u) then
                    bucket_update b u (b.gain.(u) - 1))
                net;
            counts.(ni).(s) <- counts.(ni).(s) - 1;
            counts.(ni).(t) <- counts.(ni).(t) + 1;
            let fc = counts.(ni).(s) in
            if fc = 0 then
              Array.iter
                (fun u ->
                  if (not locked_now.(u)) && b.in_bucket.(u) then
                    bucket_update b u (b.gain.(u) - 1))
                net
            else if fc = 1 then
              Array.iter
                (fun u ->
                  if side.(u) = s && u <> v && (not locked_now.(u)) && b.in_bucket.(u)
                  then bucket_update b u (b.gain.(u) + 1))
                net;
            (* Maintain the cut count incrementally: after the move the
               to-side is non-empty, so the net is cut iff pins remain on
               the from-side. *)
            let was_cut = sc_old > 0 && tc > 0 in
            let is_cut = sc_old - 1 > 0 in
            if was_cut && not is_cut then decr cut
            else if (not was_cut) && is_cut then incr cut)
          incident.(v);
        side.(v) <- t;
        side_weight.(s) <- side_weight.(s) - p.weights.(v);
        side_weight.(t) <- side_weight.(t) + p.weights.(v);
        moves := v :: !moves;
        incr nmoves;
        if !cut < !best_cut then begin
          best_cut := !cut;
          best_prefix := !nmoves
        end
      end
    done;
    (* Roll back the moves after the best prefix. *)
    let to_undo = !nmoves - !best_prefix in
    let rec undo k = function
      | [] -> ()
      | v :: rest ->
        if k > 0 then begin
          let s = side.(v) in
          side.(v) <- 1 - s;
          side_weight.(s) <- side_weight.(s) - p.weights.(v);
          side_weight.(1 - s) <- side_weight.(1 - s) + p.weights.(v);
          undo (k - 1) rest
        end
    in
    undo to_undo !moves;
    start_cut - !best_cut
  in
  let rec loop i =
    if i < max_passes then begin
      let improvement = pass () in
      if improvement > 0 then loop (i + 1)
    end
  in
  loop 0;
  side

let leaf_size = 4

let place (hg : Hypergraph.t) ~floorplan ~rng =
  let n = Hypergraph.num_nodes hg in
  let pos = Array.make n (Geom.point 0.0 0.0) in
  let center =
    Geom.point (floorplan.Floorplan.die_width /. 2.0)
      (floorplan.Floorplan.die_height /. 2.0)
  in
  Array.iteri
    (fun i f -> pos.(i) <- (match f with Some p -> p | None -> center))
    hg.Hypergraph.fixed;
  (* Spread the nodes of a leaf region on a local grid. *)
  let distribute nodes (box : Geom.bbox) =
    match nodes with
    | [] -> ()
    | _ ->
      let k = List.length nodes in
      let cols = int_of_float (ceil (sqrt (float_of_int k))) in
      let rows = (k + cols - 1) / cols in
      let w = (box.Geom.hx -. box.Geom.lx) /. float_of_int cols in
      let h = (box.Geom.hy -. box.Geom.ly) /. float_of_int rows in
      List.iteri
        (fun i v ->
          let c = i mod cols and r = i / cols in
          pos.(v) <-
            Geom.point
              (box.Geom.lx +. ((float_of_int c +. 0.5) *. w))
              (box.Geom.ly +. ((float_of_int r +. 0.5) *. h)))
        nodes
  in
  let in_region = Array.make n false in
  (* [nets] passed down: ids of hypergraph nets with >= 1 pin in region. *)
  let rec split nodes net_ids (box : Geom.bbox) depth =
    if List.length nodes <= leaf_size || depth > 40 then distribute nodes box
    else begin
      let vertical_cut = box.Geom.hx -. box.Geom.lx >= box.Geom.hy -. box.Geom.ly in
      let mid =
        if vertical_cut then (box.Geom.lx +. box.Geom.hx) /. 2.0
        else (box.Geom.ly +. box.Geom.hy) /. 2.0
      in
      List.iter (fun v -> in_region.(v) <- true) nodes;
      (* Local ids: region nodes then two anchors. *)
      let node_arr = Array.of_list nodes in
      let local_of = Hashtbl.create (Array.length node_arr) in
      Array.iteri (fun li v -> Hashtbl.add local_of v li) node_arr;
      let k = Array.length node_arr in
      let anchor0 = k and anchor1 = k + 1 in
      let local_nets = ref [] in
      let surviving = ref [] in
      List.iter
        (fun ni ->
          let net = hg.Hypergraph.nets.(ni) in
          let locals = ref [] and ext0 = ref false and ext1 = ref false in
          Array.iter
            (fun v ->
              if in_region.(v) then locals := Hashtbl.find local_of v :: !locals
              else begin
                let coord =
                  if vertical_cut then pos.(v).Geom.x else pos.(v).Geom.y
                in
                if coord <= mid then ext0 := true else ext1 := true
              end)
            net;
          match !locals with
          | [] -> ()
          | locals_list ->
            surviving := ni :: !surviving;
            let pins = locals_list in
            let pins = if !ext0 then anchor0 :: pins else pins in
            let pins = if !ext1 then anchor1 :: pins else pins in
            if List.length pins >= 2 then
              local_nets := Array.of_list pins :: !local_nets)
        net_ids;
      let weights = Array.make (k + 2) 0 in
      Array.iteri
        (fun li v -> weights.(li) <- max 1 hg.Hypergraph.weights.(v))
        node_arr;
      let locked = Array.make (k + 2) None in
      locked.(anchor0) <- Some 0;
      locked.(anchor1) <- Some 1;
      let problem =
        { weights; nets = Array.of_list !local_nets; locked }
      in
      let side = bipartition ~rng problem in
      List.iter (fun v -> in_region.(v) <- false) nodes;
      (* Cut position proportional to the side weights. *)
      let w0 = ref 0 and w1 = ref 0 in
      Array.iteri
        (fun li v ->
          ignore v;
          if side.(li) = 0 then w0 := !w0 + weights.(li) else w1 := !w1 + weights.(li))
        node_arr;
      let frac =
        let total = !w0 + !w1 in
        if total = 0 then 0.5 else float_of_int !w0 /. float_of_int total
      in
      let frac = Geom.clamp 0.1 0.9 frac in
      let box0, box1 =
        if vertical_cut then begin
          let cut = box.Geom.lx +. (frac *. (box.Geom.hx -. box.Geom.lx)) in
          ( { box with Geom.hx = cut }, { box with Geom.lx = cut } )
        end
        else begin
          let cut = box.Geom.ly +. (frac *. (box.Geom.hy -. box.Geom.ly)) in
          ( { box with Geom.hy = cut }, { box with Geom.ly = cut } )
        end
      in
      let nodes0 = ref [] and nodes1 = ref [] in
      Array.iteri
        (fun li v ->
          if side.(li) = 0 then nodes0 := v :: !nodes0 else nodes1 := v :: !nodes1)
        node_arr;
      (* Update positions to sub-region centers for terminal propagation
         deeper in the recursion. *)
      let c0 =
        Geom.point ((box0.Geom.lx +. box0.Geom.hx) /. 2.0)
          ((box0.Geom.ly +. box0.Geom.hy) /. 2.0)
      and c1 =
        Geom.point ((box1.Geom.lx +. box1.Geom.hx) /. 2.0)
          ((box1.Geom.ly +. box1.Geom.hy) /. 2.0)
      in
      List.iter (fun v -> pos.(v) <- c0) !nodes0;
      List.iter (fun v -> pos.(v) <- c1) !nodes1;
      split !nodes0 !surviving box0 (depth + 1);
      split !nodes1 !surviving box1 (depth + 1)
    end
  in
  let movables = ref [] in
  for i = n - 1 downto 0 do
    if hg.Hypergraph.fixed.(i) = None then movables := i :: !movables
  done;
  let all_nets = List.init (Array.length hg.Hypergraph.nets) (fun i -> i) in
  let die_box =
    {
      Geom.lx = 0.0;
      ly = 0.0;
      hx = floorplan.Floorplan.die_width;
      hy = floorplan.Floorplan.die_height;
    }
  in
  split !movables all_nets die_box 0;
  pos
