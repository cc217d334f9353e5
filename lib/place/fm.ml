module Metrics = Cals_telemetry.Metrics

let m_passes = Metrics.counter ~help:"FM bipartition passes run" "fm_passes"

let m_moves =
  Metrics.counter
    ~help:"FM gain-bucket moves applied up to each pass's exit (before rollback)"
    "fm_moves"

let m_improvement =
  Metrics.histogram ~help:"Cut-size improvement per FM pass"
    ~buckets:[| 0.0; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]
    "fm_pass_improvement"

type work = {
  order : int array;  (** Fill order of the initial split. *)
  first : int array;  (** Node [v]'s nets: [incident.(first.(v) .. first.(v+1) - 1)]. *)
  incident : int array;
  counts : int array;  (** [counts.(2e + s)]: pins of net [e] on side [s]. *)
  fixed : Bytes.t;
      (** Byte [e]: bit [s] if net [e] has a pin on side [s] that cannot
          move again in this pass (a locked node or one already moved),
          bit [2 + s] if it has a locked pin on side [s]. *)
  mutable head : int array;  (** [head.(g + offset)]: first node of gain [g], or -1. *)
  prev : int array;
  next : int array;
  gain : int array;
  in_bucket : bool array;
  moves : int array;  (** The pass's moves, oldest first. *)
  mutable offset : int;
  mutable max_gain : int;  (** Upper bound on the best non-empty bucket. *)
}

type scratch = {
  weight : int array;
  lock : int array;
  net_lo : int array;
  net_hi : int array;
  pins : int array;
  side : int array;
  work : work;
}

let scratch ~nodes ~nets ~pins =
  let ints n = Array.make n 0 in
  {
    weight = ints nodes;
    lock = ints nodes;
    net_lo = ints nets;
    net_hi = ints nets;
    pins = ints pins;
    side = ints nodes;
    work =
      {
        order = ints nodes;
        first = ints (nodes + 1);
        incident = ints pins;
        counts = ints (2 * nets);
        fixed = Bytes.make nets '\000';
        head = [||];
        prev = ints nodes;
        next = ints nodes;
        gain = ints nodes;
        in_bucket = Array.make nodes false;
        moves = ints nodes;
        offset = 0;
        max_gain = 0;
      };
  }

(* Doubly-linked gain buckets; inserting at the head makes each LIFO. *)
let insert w v g =
  let idx = g + w.offset in
  let h = w.head.(idx) in
  w.gain.(v) <- g;
  w.prev.(v) <- -1;
  w.next.(v) <- h;
  if h >= 0 then w.prev.(h) <- v;
  w.head.(idx) <- v;
  w.in_bucket.(v) <- true;
  if g > w.max_gain then w.max_gain <- g

let remove w v =
  let p = w.prev.(v) and nx = w.next.(v) in
  if p >= 0 then w.next.(p) <- nx else w.head.(w.gain.(v) + w.offset) <- nx;
  if nx >= 0 then w.prev.(nx) <- p;
  w.in_bucket.(v) <- false

let shift w v delta =
  let g = w.gain.(v) + delta in
  remove w v;
  insert w v g

let max_passes = 8
let balance_tolerance = 0.1 (* either side may hold 60 % of the weight *)

let run s ~rng ~nodes:n ~nets:m =
  let w = s.work and side = s.side and weight = s.weight and lock = s.lock in
  let pins = s.pins and lo = s.net_lo and hi = s.net_hi in
  let first = w.first and incident = w.incident and counts = w.counts in
  let fixed = w.fixed in
  (* Initial split: locked nodes first, then the free ones in an order
     shuffled as [Rng.shuffle] shuffles [0 .. n-1], each onto the lighter
     side. *)
  let sw = [| 0; 0 |] and total = ref 0 in
  for v = 0 to n - 1 do
    w.order.(v) <- v;
    total := !total + weight.(v);
    let l = lock.(v) in
    if l >= 0 then begin
      side.(v) <- l;
      sw.(l) <- sw.(l) + weight.(v)
    end
  done;
  for i = n - 1 downto 1 do
    let j = Cals_util.Rng.int rng (i + 1) in
    let t = w.order.(i) in
    w.order.(i) <- w.order.(j);
    w.order.(j) <- t
  done;
  for i = 0 to n - 1 do
    let v = w.order.(i) in
    if lock.(v) < 0 then begin
      let t = if sw.(0) <= sw.(1) then 0 else 1 in
      side.(v) <- t;
      sw.(t) <- sw.(t) + weight.(v)
    end
  done;
  (* A net locked to both sides is dead in every pass: it is cut
     whatever moves and changes no free node's gain, so it stays out of
     the incidence and the passes and only counts in [lock_dead]. *)
  let lock_dead = ref 0 in
  for e = 0 to m - 1 do
    let l = ref 0 in
    for p = lo.(e) to hi.(e) - 1 do
      let v = pins.(p) in
      if lock.(v) >= 0 then l := !l lor (1 lsl lock.(v))
    done;
    Bytes.set_uint8 fixed e (!l lsl 2);
    if !l = 3 then incr lock_dead
  done;
  let live e = Bytes.get_uint8 fixed e lsr 2 < 3 in
  (* Incidence of the other nets in CSR form, each node's nets ascending;
     a duplicate pin lists its net twice. *)
  Array.fill first 0 (n + 1) 0;
  for e = 0 to m - 1 do
    if live e then
      for p = lo.(e) to hi.(e) - 1 do
        first.(pins.(p)) <- first.(pins.(p)) + 1
      done
  done;
  (* A free node's gain lies within its degree; locked nodes never enter
     a bucket. *)
  let max_deg = ref 1 in
  for v = 0 to n - 1 do
    if lock.(v) < 0 then max_deg := max !max_deg first.(v)
  done;
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v + 1) + first.(v)
  done;
  for e = m - 1 downto 0 do
    if live e then
      for p = hi.(e) - 1 downto lo.(e) do
        let v = pins.(p) in
        first.(v) <- first.(v) - 1;
        incident.(first.(v)) <- e
      done
  done;
  let max_deg = !max_deg in
  if Array.length w.head < (2 * max_deg) + 1 then
    w.head <- Array.make ((2 * max_deg) + 1) (-1);
  w.offset <- max_deg;
  let limit =
    int_of_float ((0.5 +. balance_tolerance) *. float_of_int !total)
  in
  (* A node is free in a pass exactly while it sits in a bucket. A net
     with a pin fixed on each side is dead: it stays cut for the rest of
     the pass, so no later cut is below [dead]. Each pass starts a net's
     fixed sides from its locked ones. *)
  let pass () =
    let cut = ref !lock_dead and dead = ref !lock_dead in
    for e = 0 to m - 1 do
      let l = Bytes.get_uint8 fixed e lsr 2 in
      if l < 3 then begin
        Bytes.set_uint8 fixed e ((l lsl 2) lor l);
        counts.(2 * e) <- 0;
        counts.((2 * e) + 1) <- 0;
        for p = lo.(e) to hi.(e) - 1 do
          let c = (2 * e) + side.(pins.(p)) in
          counts.(c) <- counts.(c) + 1
        done;
        if counts.(2 * e) > 0 && counts.((2 * e) + 1) > 0 then incr cut
      end
    done;
    Array.fill w.head 0 ((2 * max_deg) + 1) (-1);
    w.max_gain <- -max_deg;
    for v = 0 to n - 1 do
      w.in_bucket.(v) <- false;
      if lock.(v) < 0 then begin
        let s = side.(v) and g = ref 0 in
        for q = first.(v) to first.(v + 1) - 1 do
          let c = 2 * incident.(q) in
          if counts.(c + s) = 1 then incr g;
          if counts.(c + 1 - s) = 0 then decr g
        done;
        insert w v !g
      end
    done;
    let start_cut = !cut in
    let best_cut = ref start_cut and best_prefix = ref 0 and nmoves = ref 0 in
    (* Once [dead] reaches the best cut no later prefix can beat it, and
       the moves left would all be rolled back. *)
    let continue = ref (!dead < start_cut) in
    while !continue do
      (* Pop the first node of the best bucket that stays balanced; the
         bound drops to the bucket the node came from. *)
      let v = ref (-1) and g = ref w.max_gain in
      while !v < 0 && !g + max_deg >= 0 do
        let u = ref w.head.(!g + max_deg) in
        while
          !u >= 0 && sw.(1 - side.(!u)) + weight.(!u) > max limit weight.(!u)
        do
          u := w.next.(!u)
        done;
        if !u >= 0 then begin
          v := !u;
          w.max_gain <- !g
        end
        else decr g
      done;
      let v = !v in
      if v < 0 then continue := false
      else begin
        remove w v;
        let s = side.(v) in
        let t = 1 - s in
        (* Gain updates around the move (standard FM increments). *)
        for q = first.(v) to first.(v + 1) - 1 do
          let e = incident.(q) in
          let f = Bytes.get_uint8 fixed e in
          (* A dead net keeps a fixed pin on each side, so it stays cut
             and adds nothing to a free node's gain: the move changes no
             gain through it, and its counts are not read again in this
             pass. *)
          if f land 3 <> 3 then begin
            let a = lo.(e) and b = hi.(e) - 1 in
            let sc = counts.((2 * e) + s) and tc = counts.((2 * e) + t) in
            if tc = 0 then
              for p = a to b do
                if w.in_bucket.(pins.(p)) then shift w pins.(p) 1
              done
            else if tc = 1 then
              for p = a to b do
                let u = pins.(p) in
                if side.(u) = t && w.in_bucket.(u) then shift w u (-1)
              done;
            counts.((2 * e) + s) <- sc - 1;
            counts.((2 * e) + t) <- tc + 1;
            if sc = 1 then
              for p = a to b do
                if w.in_bucket.(pins.(p)) then shift w pins.(p) (-1)
              done
            else if sc = 2 then
              for p = a to b do
                let u = pins.(p) in
                if side.(u) = s && w.in_bucket.(u) then shift w u 1
              done;
            (* After the move the to-side is non-empty, so the net is cut
               iff pins remain on the from-side. *)
            if sc > 0 && tc > 0 then (if sc = 1 then decr cut)
            else if sc > 1 then incr cut;
            if f land 3 = 1 lsl s then incr dead;
            Bytes.set_uint8 fixed e (f lor (1 lsl t))
          end
        done;
        side.(v) <- t;
        sw.(s) <- sw.(s) - weight.(v);
        sw.(t) <- sw.(t) + weight.(v);
        w.moves.(!nmoves) <- v;
        incr nmoves;
        if !cut < !best_cut then begin
          best_cut := !cut;
          best_prefix := !nmoves
        end;
        if !dead >= !best_cut then continue := false
      end
    done;
    (* Roll back the moves after the best prefix. *)
    for i = !nmoves - 1 downto !best_prefix do
      let v = w.moves.(i) in
      let s = side.(v) in
      side.(v) <- 1 - s;
      sw.(s) <- sw.(s) - weight.(v);
      sw.(1 - s) <- sw.(1 - s) + weight.(v)
    done;
    Metrics.incr m_passes;
    Metrics.add m_moves !nmoves;
    Metrics.observe m_improvement (float_of_int (start_cut - !best_cut));
    start_cut - !best_cut
  in
  let rec loop i = if i < max_passes && pass () > 0 then loop (i + 1) in
  loop 0
