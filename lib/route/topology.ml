type segment = {
  src : int * int;
  dst : int * int;
}

let manhattan (c1, r1) (c2, r2) = abs (c1 - c2) + abs (r1 - r2)

(* Prim over pins that are already distinct and sorted — the router holds
   them in that form (its per-net gcell lists), so re-sorting here would
   be pure waste on the hot path. *)
let mst_segments_sorted pins =
  match pins with
  | [] | [ _ ] -> []
  | first :: _ ->
    let arr = Array.of_list pins in
    let n = Array.length arr in
    let in_tree = Array.make n false in
    let dist = Array.make n max_int in
    let parent = Array.make n (-1) in
    let first_idx = ref 0 in
    Array.iteri (fun i p -> if p = first then first_idx := i) arr;
    dist.(!first_idx) <- 0;
    let segments = ref [] in
    for _ = 1 to n do
      (* Pick the closest node not yet in the tree. *)
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if (not in_tree.(i)) && (!best < 0 || dist.(i) < dist.(!best)) then best := i
      done;
      let u = !best in
      in_tree.(u) <- true;
      if parent.(u) >= 0 then
        segments := { src = arr.(parent.(u)); dst = arr.(u) } :: !segments;
      for v = 0 to n - 1 do
        if not in_tree.(v) then begin
          let d = manhattan arr.(u) arr.(v) in
          if d < dist.(v) then begin
            dist.(v) <- d;
            parent.(v) <- u
          end
        end
      done
    done;
    List.rev !segments

let star_segments driver pins =
  pins
  |> List.sort_uniq compare
  |> List.filter (fun p -> p <> driver)
  |> List.map (fun p -> { src = driver; dst = p })
