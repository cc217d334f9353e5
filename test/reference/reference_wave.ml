(* Growable int vector over a plain array. *)
type vec = {
  mutable a : int array;
  mutable n : int;
}

let vec_make () = { a = Array.make 64 0; n = 0 }
let vec_clear v = v.n <- 0

let vec_push v x =
  if v.n = Array.length v.a then begin
    let na = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 na 0 v.n;
    v.a <- na
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

type state = {
  mutable pend : vec;
  mutable defer : vec;
  wave : vec;
  rects : vec;
  boxes : int array;
}

let build_wave state =
  vec_clear state.wave;
  vec_clear state.rects;
  vec_clear state.defer;
  let boxes = state.boxes in
  for k = 0 to state.pend.n - 1 do
    let si = state.pend.a.(k) in
    let bx = 4 * si in
    let bc0 = boxes.(bx)
    and br0 = boxes.(bx + 1)
    and bc1 = boxes.(bx + 2)
    and br1 = boxes.(bx + 3) in
    let ok = ref true in
    let j = ref 0 in
    while !ok && !j < state.wave.n do
      let b = 4 * !j in
      let oc0 = state.rects.a.(b)
      and or0 = state.rects.a.(b + 1)
      and oc1 = state.rects.a.(b + 2)
      and or1 = state.rects.a.(b + 3) in
      if not (bc1 < oc0 || oc1 < bc0 || br1 < or0 || or1 < br0) then ok := false;
      incr j
    done;
    if !ok then begin
      vec_push state.wave si;
      vec_push state.rects bc0;
      vec_push state.rects br0;
      vec_push state.rects bc1;
      vec_push state.rects br1
    end
    else vec_push state.defer si
  done;
  let t = state.pend in
  state.pend <- state.defer;
  state.defer <- t

let waves ~boxes pend =
  let state =
    { pend = vec_make (); defer = vec_make (); wave = vec_make ();
      rects = vec_make (); boxes }
  in
  Array.iter (vec_push state.pend) pend;
  let acc = ref [] in
  while state.pend.n > 0 do
    build_wave state;
    acc := Array.sub state.wave.a 0 state.wave.n :: !acc
  done;
  List.rev !acc
