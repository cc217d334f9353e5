type point = { x : float; y : float }

let point x y = { x; y }
let manhattan a b = abs_float (a.x -. b.x) +. abs_float (a.y -. b.y)

type metric = Manhattan | Euclidean

let distance metric a b =
  match metric with
  | Manhattan -> manhattan a b
  | Euclidean ->
    let dx = a.x -. b.x and dy = a.y -. b.y in
    sqrt ((dx *. dx) +. (dy *. dy))

type bbox = { lx : float; ly : float; hx : float; hy : float }

let bbox_empty = { lx = infinity; ly = infinity; hx = neg_infinity; hy = neg_infinity }

let bbox_add b p =
  { lx = min b.lx p.x; ly = min b.ly p.y; hx = max b.hx p.x; hy = max b.hy p.y }

let half_perimeter b = b.hx -. b.lx +. (b.hy -. b.ly)
let clamp lo hi v = if v < lo then lo else if v > hi then hi else v
