type scratch = {
  col : int array;
  row : int array;
  dist : int array;  (** [-1] once in the tree. *)
  parent : int array;
}

let scratch n =
  {
    col = Array.make n 0;
    row = Array.make n 0;
    dist = Array.make n 0;
    parent = Array.make n 0;
  }

(* Prim, O(n^2) over the slice: pick the closest gcell not yet in the
   tree (the first on ties), join it to its parent, relax the rest. *)
let iter_mst s ~rows cells lo hi f =
  let n = hi - lo in
  if n >= 2 then begin
    let col = s.col and row = s.row and dist = s.dist and parent = s.parent in
    for i = 0 to n - 1 do
      let g = cells.(lo + i) in
      col.(i) <- g / rows;
      row.(i) <- g mod rows;
      dist.(i) <- max_int;
      parent.(i) <- -1
    done;
    dist.(0) <- 0;
    for _ = 1 to n do
      let u = ref (-1) in
      for i = 0 to n - 1 do
        if dist.(i) >= 0 && (!u < 0 || dist.(i) < dist.(!u)) then u := i
      done;
      let u = !u in
      dist.(u) <- -1;
      if parent.(u) >= 0 then f cells.(lo + parent.(u)) cells.(lo + u);
      let cu = col.(u) and ru = row.(u) in
      for v = 0 to n - 1 do
        if dist.(v) >= 0 then begin
          let d = abs (cu - col.(v)) + abs (ru - row.(v)) in
          if d < dist.(v) then begin
            dist.(v) <- d;
            parent.(v) <- u
          end
        end
      done
    done
  end
