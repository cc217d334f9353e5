type t = {
  cols : int;
  rows : int;
  data : float array;
}

let create ~cols ~rows init =
  if cols <= 0 || rows <= 0 then invalid_arg "Grid2d.create";
  { cols; rows; data = Array.make (cols * rows) init }

let cols g = g.cols
let rows g = g.rows

let index g c r =
  if c < 0 || c >= g.cols || r < 0 || r >= g.rows then
    invalid_arg (Printf.sprintf "Grid2d: (%d,%d) outside %dx%d" c r g.cols g.rows);
  (r * g.cols) + c

let get g c r = g.data.(index g c r)
let set g c r v = g.data.(index g c r) <- v
let add g c r v = g.data.(index g c r) <- g.data.(index g c r) +. v

let fold f g acc =
  let acc = ref acc in
  for r = 0 to g.rows - 1 do
    for c = 0 to g.cols - 1 do
      acc := f c r g.data.((r * g.cols) + c) !acc
    done
  done;
  !acc

let map_inplace f g = Array.iteri (fun i v -> g.data.(i) <- f v) g.data
let max_value g = Array.fold_left max neg_infinity g.data

let render_ascii ?(levels = " .:-=+*#%@") g =
  let hi = max (max_value g) 1e-12 in
  let nlev = String.length levels in
  let buf = Buffer.create ((g.cols + 1) * g.rows) in
  for r = g.rows - 1 downto 0 do
    for c = 0 to g.cols - 1 do
      let v = get g c r /. hi in
      let k = int_of_float (v *. float_of_int (nlev - 1) +. 0.5) in
      let k = if k < 0 then 0 else if k >= nlev then nlev - 1 else k in
      Buffer.add_char buf levels.[k]
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
