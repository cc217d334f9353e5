(* Waves per plane: 62 keeps the all-waves mask positive. *)
let bits = 62
let full = (1 lsl bits) - 1

type t = {
  mutable planes : int array;
      (* Plane p's bitset for gcell i at [p * cells + i]; word-major, so
         one plane is a contiguous gcell grid. *)
  mutable dirty : int;  (* Prefix of [planes] the last build wrote. *)
  mutable wave_of : int array;  (* Wave per pending position. *)
  mutable start : int array;
  mutable order : int array;
  mutable count : int;
}

let create () =
  {
    planes = [||];
    dirty = 0;
    wave_of = [||];
    start = [| 0 |];
    order = [||];
    count = 0;
  }

let count t = t.count
let start t w = t.start.(w)
let order t = t.order

(* OR of one plane's bitsets over the box, stopping once every wave of
   the plane is taken. *)
let taken planes base cols c0 r0 c1 r1 =
  let acc = ref 0 and r = ref r0 in
  while !acc <> full && !r <= r1 do
    let row = base + (!r * cols) in
    for i = row + c0 to row + c1 do
      acc := !acc lor planes.(i)
    done;
    incr r
  done;
  !acc

let claim planes base cols c0 r0 c1 r1 bit =
  for r = r0 to r1 do
    let row = base + (r * cols) in
    for i = row + c0 to row + c1 do
      planes.(i) <- planes.(i) lor bit
    done
  done

let rec bit_index b i = if b land 1 = 1 then i else bit_index (b lsr 1) (i + 1)

let build t ~cols ~rows ~boxes ~pend n =
  let cells = cols * rows in
  Array.fill t.planes 0 t.dirty 0;
  t.dirty <- 0;
  if Array.length t.wave_of < n then begin
    t.wave_of <- Array.make n 0;
    t.order <- Array.make n 0
  end;
  let wave_of = t.wave_of in
  let nplanes = ref 0 and count = ref 0 in
  for k = 0 to n - 1 do
    let bx = 4 * pend.(k) in
    let c0 = boxes.(bx)
    and r0 = boxes.(bx + 1)
    and c1 = boxes.(bx + 2)
    and r1 = boxes.(bx + 3) in
    let p = ref 0 and free = ref 0 in
    while !free = 0 && !p < !nplanes do
      free := full land lnot (taken t.planes (!p * cells) cols c0 r0 c1 r1);
      if !free = 0 then incr p
    done;
    if !free = 0 then begin
      (* Every open wave meets this box: open a plane. Planes past
         [dirty] are still zero. *)
      let need = (!nplanes + 1) * cells in
      if Array.length t.planes < need then begin
        let np = Array.make (max need (2 * Array.length t.planes)) 0 in
        Array.blit t.planes 0 np 0 t.dirty;
        t.planes <- np
      end;
      t.dirty <- need;
      incr nplanes;
      free := full
    end;
    let bit = !free land (- !free) in
    claim t.planes (!p * cells) cols c0 r0 c1 r1 bit;
    let w = (!p * bits) + bit_index bit 0 in
    wave_of.(k) <- w;
    if w >= !count then count := w + 1
  done;
  (* Counting sort by wave, stable in pending order. *)
  let nw = !count in
  if Array.length t.start < nw + 1 then t.start <- Array.make (nw + 1) 0
  else Array.fill t.start 0 (nw + 1) 0;
  let start = t.start in
  for k = 0 to n - 1 do
    let w = wave_of.(k) + 1 in
    start.(w) <- start.(w) + 1
  done;
  for w = 1 to nw do
    start.(w) <- start.(w) + start.(w - 1)
  done;
  (* Scatter with [start.(w)] as wave w's cursor; afterwards it holds the
     start of wave w + 1, so shift back by one. *)
  for k = 0 to n - 1 do
    let w = wave_of.(k) in
    t.order.(start.(w)) <- pend.(k);
    start.(w) <- start.(w) + 1
  done;
  for w = nw downto 1 do
    start.(w) <- start.(w - 1)
  done;
  start.(0) <- 0;
  t.count <- nw
