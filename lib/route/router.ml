module Geom = Cals_util.Geom
module Arena = Cals_util.Arena
module Cancel = Cals_util.Cancel
module Fnv = Cals_util.Tables.Fnv64
module Grid2d = Cals_util.Grid2d
module Mapped = Cals_netlist.Mapped
module Probe = Cals_telemetry.Probe
module Span = Cals_telemetry.Span
module Metrics = Cals_telemetry.Metrics

let m_maze_calls = Metrics.counter ~help:"Maze-route invocations" "route_maze_calls"
let m_maze_pops = Metrics.counter ~help:"Frontier pops across maze routes" "route_maze_pops"

let m_ripup_iterations =
  Metrics.counter ~help:"Negotiated rip-up and reroute iterations"
    "route_ripup_iterations"

let m_rerouted =
  Metrics.counter ~help:"Segments ripped up and rerouted" "route_segments_rerouted"

let m_overflow_per_iteration =
  Metrics.histogram ~help:"Total gcell overflow at each rip-up iteration"
    ~buckets:[| 0.0; 1.0; 4.0; 16.0; 64.0; 256.0; 1024.0; 4096.0 |]
    "route_overflow_per_iteration"

let g_overflow = Metrics.gauge ~help:"Total overflow after routing" "route_overflow"

let g_max_utilization =
  Metrics.gauge ~help:"Peak gcell-edge utilization after routing"
    "route_max_utilization"

let m_session_replays =
  Metrics.counter ~help:"Route requests replayed whole from a session cache"
    "router_session_replays"

let m_session_nets_rerouted =
  Metrics.counter ~help:"Nets of session route requests that routed cold"
    "router_session_nets_rerouted"

type config = {
  layers : int;
  reroute_iterations : int;
}

let default_config = { layers = 3; reroute_iterations = 16 }

(* Negotiation costs: an edge's cost grows by [overflow_penalty] per unit
   it would overflow, and every overflowed edge's history by
   [history_increment] per negotiation iteration. *)
let overflow_penalty = 4.0
let history_increment = 1.0

type route = {
  net : int;
  gends : (int * int) * (int * int);
  edges : Rgrid.edge list;
}

type result = {
  grid : Rgrid.t;
  violations : int;
  total_overflow : float;
  wirelength_um : float;
  max_utilization : float;
  num_nets : int;
  num_segments : int;
  net_length_um : float array;
  routes : route array;
  gcell_start : int array;
  net_gcells : int array;
}

(* A segment's committed path lives as a slice [off, off+len) of flat edge
   ids in the routing call's arena — no per-edge list cells on the OCaml
   heap until the final result is built. Edge id encoding: with
   [nh = (cols-1) * rows], id < nh is horizontal edge [r*(cols-1)+c],
   otherwise [id - nh] is vertical edge [r*cols+c]. Slices are stored in
   src-to-dst walk order. *)
type seg_state = {
  net : int;
  ends : (int * int) * (int * int);
  mutable off : int;
  mutable len : int;
}

(* Growable int vector over a plain array (indices, never floats). *)
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

(* Everything one routing call mutates besides the grid: the path arena,
   the negotiation work lists and the wave scratch. Each domain keeps one
   (see [state_key]) and clears it at the start of every call, so repeated
   calls reuse the same storage and concurrent calls (orchestrate
   candidates on a pool) never share one. *)
type state = {
  arena : Arena.t;
  pend : vec;  (** Segment indices crossing an overflowed edge. *)
  waves : Wave.t;  (** The current iteration's waves. *)
  mutable boxes : int array;
      (** Four ints (c0 r0 c1 r1) per segment: the default search box,
          precomputed once per negotiation and read by every wave
          colouring and search. *)
}

let create_state () =
  {
    arena = Arena.create ~capacity:(1 lsl 16) ();
    pend = vec_make ();
    waves = Wave.create ();
    boxes = [||];
  }

let state_key = Domain.DLS.new_key create_state

(* Per-domain maze scratch: distance/backtrack stamps, the frontier heap
   as parallel float/int arrays (floats only ever flow through these
   arrays, so nothing boxes on the hot path) and the edge-id path buffer.
   Domain-local, like [state]. *)
type scratch = {
  mutable dist : float array;
  mutable prev : int array;
  mutable stamp : int array;
  mutable gen : int;
  mutable qprio : float array;
  mutable qdata : int array;
  mutable qsize : int;
  mutable pathbuf : int array;
  mutable pathlen : int;
}

let create_scratch () =
  {
    dist = Array.make 1 infinity;
    prev = Array.make 1 (-1);
    stamp = Array.make 1 0;
    gen = 0;
    qprio = Array.make 256 0.0;
    qdata = Array.make 256 0;
    qsize = 0;
    pathbuf = Array.make 256 0;
    pathlen = 0;
  }

let scratch_key = Domain.DLS.new_key create_scratch

let ensure_scratch s n =
  if Array.length s.dist < n then begin
    s.dist <- Array.make n infinity;
    s.prev <- Array.make n (-1);
    s.stamp <- Array.make n 0;
    s.gen <- 0
  end;
  if Array.length s.pathbuf < n then s.pathbuf <- Array.make n 0

let heap_grow s =
  let cap = Array.length s.qprio in
  let np = Array.make (2 * cap) 0.0 and nd = Array.make (2 * cap) 0 in
  Array.blit s.qprio 0 np 0 s.qsize;
  Array.blit s.qdata 0 nd 0 s.qsize;
  s.qprio <- np;
  s.qdata <- nd

(* Binary-heap maintenance over the parallel arrays. Only ints cross the
   call boundary; float swaps stay in locals. The array types are spelled
   out because without them inference leaves these functions polymorphic —
   generic array gets that box every priority read. *)
let rec heap_sift_up (qp : float array) (qd : int array) i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if qp.(i) < qp.(parent) then begin
      let tp = qp.(i) and td = qd.(i) in
      qp.(i) <- qp.(parent);
      qd.(i) <- qd.(parent);
      qp.(parent) <- tp;
      qd.(parent) <- td;
      heap_sift_up qp qd parent
    end
  end

let rec heap_sift_down (qp : float array) (qd : int array) size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let smallest = if l + 1 < size && qp.(l + 1) < qp.(l) then l + 1 else l in
    if qp.(smallest) < qp.(i) then begin
      let tp = qp.(i) and td = qd.(i) in
      qp.(i) <- qp.(smallest);
      qd.(i) <- qd.(smallest);
      qp.(smallest) <- tp;
      qd.(smallest) <- td;
      heap_sift_down qp qd size smallest
    end
  end

(* Relax the edge [i] of one direction's [usage]/[cap]/[hist] arrays
   from gcell [v] to its neighbour [nidx], whose Manhattan distance to
   the target is [h]: the edge costs 1.0, plus [overflow_penalty] per
   unit it would overflow, plus its history. Only ints and arrays cross
   the call — [v]'s distance is read from [scratch.dist] — so nothing
   boxes whether or not it inlines. *)
let[@inline] relax scratch (usage : float array) (cap : float array)
    (hist : float array) i v nidx h =
  let dist = scratch.dist and stamp = scratch.stamp in
  let over = usage.(i) +. 1.0 -. cap.(i) in
  let cost =
    dist.(v) +. 1.0
    +. (if over > 0.0 then overflow_penalty *. over else 0.0)
    +. hist.(i)
  in
  if stamp.(nidx) <> scratch.gen || cost < dist.(nidx) then begin
    dist.(nidx) <- cost;
    stamp.(nidx) <- scratch.gen;
    scratch.prev.(nidx) <- v;
    if scratch.qsize = Array.length scratch.qprio then heap_grow scratch;
    let qp = scratch.qprio and qd = scratch.qdata in
    let j = scratch.qsize in
    qp.(j) <- cost +. float_of_int h;
    qd.(j) <- nidx;
    scratch.qsize <- j + 1;
    heap_sift_up qp qd j
  end

(* A* over gcells, restricted to the box [bc0,bc1] x [br0,br1] (which
   always contains both endpoints). The heuristic is Manhattan distance
   times the minimum edge cost (>= 1.0): admissible and consistent, so
   the first pop of the target is Dijkstra's answer. Stale queue entries
   (lazy decrease-key) satisfy f > dist + h and are skipped. The whole
   search allocates nothing. On success the path's edge ids are left in
   [scratch.pathbuf] (dst-to-src order, length [scratch.pathlen]). *)
let maze_route grid scratch ~bc0 ~br0 ~bc1 ~br1 (src, dst) =
  let cols = grid.Rgrid.cols and rows = grid.Rgrid.rows in
  let n = cols * rows in
  ensure_scratch scratch n;
  scratch.gen <- scratch.gen + 1;
  let gen = scratch.gen in
  let dist = scratch.dist and prev = scratch.prev and stamp = scratch.stamp in
  scratch.qsize <- 0;
  let hcap = grid.Rgrid.hcap
  and husage = grid.Rgrid.husage
  and hhist = grid.Rgrid.hhistory in
  let vcap = grid.Rgrid.vcap
  and vusage = grid.Rgrid.vusage
  and vhist = grid.Rgrid.vhistory in
  let sc, sr = src and dc, dr = dst in
  let sidx = (sr * cols) + sc and didx = (dr * cols) + dc in
  dist.(sidx) <- 0.0;
  stamp.(sidx) <- gen;
  prev.(sidx) <- -1;
  scratch.qprio.(0) <- float_of_int (abs (sc - dc) + abs (sr - dr));
  scratch.qdata.(0) <- sidx;
  scratch.qsize <- 1;
  (* Pops are counted in a local ref and published once per call, so the
     enabled path adds one predictable branch per pop and the disabled
     path costs a single flag read for the whole search. *)
  let counting = Probe.enabled () in
  let pops = ref 0 in
  let found = ref false in
  (try
     while scratch.qsize > 0 do
       let qp = scratch.qprio and qd = scratch.qdata in
       let f = qp.(0) in
       let v = qd.(0) in
       let last = scratch.qsize - 1 in
       qp.(0) <- qp.(last);
       qd.(0) <- qd.(last);
       scratch.qsize <- last;
       if last > 0 then heap_sift_down qp qd last 0;
       if counting then incr pops;
       let c = v mod cols and r = v / cols in
       if f <= dist.(v) +. float_of_int (abs (c - dc) + abs (r - dr)) then begin
         if v = didx then begin
           found := true;
           raise Exit
         end;
         if c < bc1 then
           relax scratch husage hcap hhist ((r * (cols - 1)) + c) v (v + 1)
             (abs (c + 1 - dc) + abs (r - dr));
         if c > bc0 then
           relax scratch husage hcap hhist ((r * (cols - 1)) + c - 1) v (v - 1)
             (abs (c - 1 - dc) + abs (r - dr));
         if r < br1 then
           relax scratch vusage vcap vhist ((r * cols) + c) v (v + cols)
             (abs (c - dc) + abs (r + 1 - dr));
         if r > br0 then
           relax scratch vusage vcap vhist (((r - 1) * cols) + c) v (v - cols)
             (abs (c - dc) + abs (r - 1 - dr))
       end
     done
   with Exit -> ());
  if counting then begin
    Metrics.incr m_maze_calls;
    Metrics.add m_maze_pops !pops
  end;
  if not !found then false
  else begin
    let nh = (cols - 1) * rows in
    let pb = scratch.pathbuf in
    let k = ref 0 in
    let v = ref didx in
    while !v <> sidx do
      let p = prev.(!v) in
      let pc = p mod cols and pr = p / cols in
      let c = !v mod cols and r = !v / cols in
      let eid =
        if pr = r then (r * (cols - 1)) + min pc c
        else nh + ((min pr r * cols) + c)
      in
      pb.(!k) <- eid;
      incr k;
      v := p
    done;
    scratch.pathlen <- !k;
    true
  end

(* Cost of a straight horizontal run of edges at row [r] between columns
   [ca] and [cb], on top of [acc0], giving up (returning infinity) as
   soon as the sum reaches [cutoff]: edge costs are >= 1.0, so prefix
   sums are monotone and the early exit fires iff the total would lose
   anyway. *)
let hleg grid ~cutoff acc0 r ca cb =
  let lo = min ca cb and hi = max ca cb in
  if lo = hi then acc0
  else begin
    let cols = grid.Rgrid.cols in
    let husage = grid.Rgrid.husage
    and hcap = grid.Rgrid.hcap
    and hhist = grid.Rgrid.hhistory in
    let base = r * (cols - 1) in
    let acc = ref acc0 in
    try
      for c = lo to hi - 1 do
        let i = base + c in
        let over = husage.(i) +. 1.0 -. hcap.(i) in
        acc :=
          !acc +. 1.0
          +. (if over > 0.0 then overflow_penalty *. over else 0.0)
          +. hhist.(i);
        if !acc >= cutoff then raise Exit
      done;
      !acc
    with Exit -> infinity
  end

let vleg grid ~cutoff acc0 c ra rb =
  let lo = min ra rb and hi = max ra rb in
  if lo = hi then acc0
  else begin
    let cols = grid.Rgrid.cols in
    let vusage = grid.Rgrid.vusage
    and vcap = grid.Rgrid.vcap
    and vhist = grid.Rgrid.vhistory in
    let acc = ref acc0 in
    try
      for r = lo to hi - 1 do
        let i = (r * cols) + c in
        let over = vusage.(i) +. 1.0 -. vcap.(i) in
        acc :=
          !acc +. 1.0
          +. (if over > 0.0 then overflow_penalty *. over else 0.0)
          +. vhist.(i);
        if !acc >= cutoff then raise Exit
      done;
      !acc
    with Exit -> infinity
  end

(* Candidate pattern paths by code, preserving the historical order:
   0 = L through (c2,r1), 1 = L through (c1,r2), 2 = Z bending at the
   column midpoint, 3 = Z bending at the row midpoint. *)
let pattern_cost grid ~cutoff code (c1, r1) (c2, r2) =
  match code with
  | 0 ->
    let a = hleg grid ~cutoff 0.0 r1 c1 c2 in
    if a = infinity then infinity else vleg grid ~cutoff a c2 r1 r2
  | 1 ->
    let a = vleg grid ~cutoff 0.0 c1 r1 r2 in
    if a = infinity then infinity else hleg grid ~cutoff a r2 c1 c2
  | 2 ->
    let mid_c = (c1 + c2) / 2 in
    let a = hleg grid ~cutoff 0.0 r1 c1 mid_c in
    let a = if a = infinity then a else vleg grid ~cutoff a mid_c r1 r2 in
    if a = infinity then infinity else hleg grid ~cutoff a r2 mid_c c2
  | _ ->
    let mid_r = (r1 + r2) / 2 in
    let a = vleg grid ~cutoff 0.0 c1 r1 mid_r in
    let a = if a = infinity then a else hleg grid ~cutoff a mid_r c1 c2 in
    if a = infinity then infinity else vleg grid ~cutoff a c2 mid_r r2

(* Claim (or release) every edge of a committed slice directly on the
   flat usage arrays. *)
let add_usage_slice grid data nh off len delta =
  let husage = grid.Rgrid.husage and vusage = grid.Rgrid.vusage in
  for i = off to off + len - 1 do
    let eid = Bigarray.Array1.get data i in
    if eid < nh then husage.(eid) <- husage.(eid) +. delta
    else begin
      let j = eid - nh in
      vusage.(j) <- vusage.(j) +. delta
    end
  done

let slice_marked grid data nh off len =
  let m = ref false in
  let i = ref off in
  let stop = off + len in
  while (not !m) && !i < stop do
    let eid = Bigarray.Array1.get data !i in
    if eid < nh then begin
      if Rgrid.marked_h grid eid then m := true
    end
    else if Rgrid.marked_v grid (eid - nh) then m := true;
    incr i
  done;
  !m

(* Emit the winning pattern path into the arena, src-to-dst, and commit
   its usage. The length is the Manhattan span, known up front. *)
let emit_pattern grid state seg code =
  let (c1, r1), (c2, r2) = seg.ends in
  let cols = grid.Rgrid.cols in
  let nh = (cols - 1) * grid.Rgrid.rows in
  let len = abs (c1 - c2) + abs (r1 - r2) in
  let off = Arena.alloc state.arena len in
  let data = Arena.data state.arena in
  let o = ref off in
  let hrun r cfrom cto =
    let base = r * (cols - 1) in
    if cto >= cfrom then
      for c = cfrom to cto - 1 do
        Bigarray.Array1.set data !o (base + c);
        incr o
      done
    else
      for c = cfrom - 1 downto cto do
        Bigarray.Array1.set data !o (base + c);
        incr o
      done
  in
  let vrun c rfrom rto =
    if rto >= rfrom then
      for r = rfrom to rto - 1 do
        Bigarray.Array1.set data !o (nh + (r * cols) + c);
        incr o
      done
    else
      for r = rfrom - 1 downto rto do
        Bigarray.Array1.set data !o (nh + (r * cols) + c);
        incr o
      done
  in
  (match code with
  | 0 ->
    hrun r1 c1 c2;
    vrun c2 r1 r2
  | 1 ->
    vrun c1 r1 r2;
    hrun r2 c1 c2
  | 2 ->
    let mid_c = (c1 + c2) / 2 in
    hrun r1 c1 mid_c;
    vrun mid_c r1 r2;
    hrun r2 mid_c c2
  | _ ->
    let mid_r = (r1 + r2) / 2 in
    vrun c1 r1 mid_r;
    hrun mid_r c1 c2;
    vrun c2 mid_r r2);
  seg.off <- off;
  seg.len <- len;
  add_usage_slice grid data nh off len 1.0

let pattern_route grid state seg =
  let ((c1, r1) as a), ((c2, r2) as b) = seg.ends in
  if a = b then begin
    seg.off <- 0;
    seg.len <- 0
  end
  else begin
    let mid_c = (c1 + c2) / 2 and mid_r = (r1 + r2) / 2 in
    let best_code = ref 0 in
    let best_cost = ref (pattern_cost grid ~cutoff:infinity 0 a b) in
    let consider code =
      let c = pattern_cost grid ~cutoff:!best_cost code a b in
      if c < !best_cost then begin
        best_cost := c;
        best_code := code
      end
    in
    consider 1;
    if mid_c <> c1 && mid_c <> c2 then consider 2;
    if mid_r <> r1 && mid_r <> r2 then consider 3;
    emit_pattern grid state seg !best_code
  end

(* Search box of a segment: the endpoints' bounding rectangle inflated by
   a margin that grows with the span, clamped to the grid. The box always
   contains a monotone staircase between the endpoints, so a bounded maze
   search inside it cannot fail. *)
let seg_margin seg =
  let (c1, r1), (c2, r2) = seg.ends in
  2 + ((abs (c1 - c2) + abs (r1 - r2)) / 4)

let seg_box grid seg m =
  let (c1, r1), (c2, r2) = seg.ends in
  let bc0 = max 0 (min c1 c2 - m)
  and br0 = max 0 (min r1 r2 - m)
  and bc1 = min (grid.Rgrid.cols - 1) (max c1 c2 + m)
  and br1 = min (grid.Rgrid.rows - 1) (max r1 r2 + m) in
  (bc0, br0, bc1, br1)

(* Commit the path a successful [maze_route] left in [scratch] (dst-to-src)
   as the segment's src-to-dst slice — in place when it fits the old
   slice, else appended to the arena — and claim its edges. *)
let commit_search grid state scratch seg =
  let len = scratch.pathlen and pb = scratch.pathbuf in
  if len > seg.len then seg.off <- Arena.alloc state.arena len;
  let data = Arena.data state.arena in
  for i = 0 to len - 1 do
    Bigarray.Array1.set data (seg.off + i) pb.(len - 1 - i)
  done;
  seg.len <- len;
  add_usage_slice grid data (Rgrid.num_hedges grid) seg.off len 1.0

(* A wave member whose in-box search failed (defensive — see seg_box) is
   retried with the margin doubling until the box covers the whole grid;
   a full-grid failure restores the old path. *)
let reroute_fallback grid cancel state scratch seg =
  let cols = grid.Rgrid.cols and rows = grid.Rgrid.rows in
  let rec attempt m =
    Cancel.check cancel;
    let bc0, br0, bc1, br1 = seg_box grid seg m in
    if maze_route grid scratch ~bc0 ~br0 ~bc1 ~br1 seg.ends then true
    else if bc0 = 0 && br0 = 0 && bc1 = cols - 1 && br1 = rows - 1 then false
    else attempt (2 * m)
  in
  if attempt (2 * seg_margin seg) then commit_search grid state scratch seg
  else
    add_usage_slice grid (Arena.data state.arena) (Rgrid.num_hedges grid)
      seg.off seg.len 1.0

(* One wave, the members at wave-order positions [first, last): rip up
   every member, then search and commit each in wave order. A search
   reads only edges inside its own box and a commit writes only edges of
   its path, which lie inside its box; the wave's boxes are disjoint, so
   no search sees another member's commit and every member finds the
   path it would find on the grid right after the rip-up. Fallbacks run
   after the whole wave. *)
let process_wave grid cancel state segs first last =
  Metrics.add m_rerouted (last - first);
  let nh = Rgrid.num_hedges grid in
  let order = Wave.order state.waves and boxes = state.boxes in
  let data = Arena.data state.arena in
  for k = first to last - 1 do
    let seg = segs.(order.(k)) in
    add_usage_slice grid data nh seg.off seg.len (-1.0)
  done;
  let scratch = Domain.DLS.get scratch_key in
  let failed = ref [] in
  for k = first to last - 1 do
    Cancel.check cancel;
    let si = order.(k) in
    let seg = segs.(si) and bx = 4 * si in
    if
      maze_route grid scratch ~bc0:boxes.(bx) ~br0:boxes.(bx + 1)
        ~bc1:boxes.(bx + 2) ~br1:boxes.(bx + 3) seg.ends
    then commit_search grid state scratch seg
    else failed := seg :: !failed
  done;
  List.iter (reroute_fallback grid cancel state scratch) (List.rev !failed)

let negotiate ~iterations grid cancel state segs =
  let nh = Rgrid.num_hedges grid in
  let cols = grid.Rgrid.cols and rows = grid.Rgrid.rows in
  (* Default search boxes, once per negotiation: endpoints and margins
     never change (the fallback's widened boxes stay local to it). *)
  let nsegs = Array.length segs in
  if Array.length state.boxes < 4 * nsegs then
    state.boxes <- Array.make (4 * nsegs) 0;
  let boxes = state.boxes in
  for si = 0 to nsegs - 1 do
    let bc0, br0, bc1, br1 = seg_box grid segs.(si) (seg_margin segs.(si)) in
    let bx = 4 * si in
    boxes.(bx) <- bc0;
    boxes.(bx + 1) <- br0;
    boxes.(bx + 2) <- bc1;
    boxes.(bx + 3) <- br1
  done;
  (* One overflow scan per iteration: it guards the loop and is what the
     histogram observes. *)
  let iteration = ref 0 in
  let overflow = ref (Rgrid.total_overflow grid) in
  while !iteration < iterations && !overflow > 0.0 do
    Cancel.check cancel;
    incr iteration;
    Metrics.incr m_ripup_iterations;
    Metrics.observe m_overflow_per_iteration !overflow;
    Rgrid.clear_overflow_marks grid;
    let hh = grid.Rgrid.hhistory and vh = grid.Rgrid.vhistory in
    Rgrid.iter_overflowed grid
      ~h:(fun i ->
        Rgrid.mark_h grid i;
        hh.(i) <- hh.(i) +. history_increment)
      ~v:(fun i ->
        Rgrid.mark_v grid i;
        vh.(i) <- vh.(i) +. history_increment);
    vec_clear state.pend;
    let data = Arena.data state.arena in
    Array.iteri
      (fun si seg ->
        if seg.len > 0 && slice_marked grid data nh seg.off seg.len then
          vec_push state.pend si)
      segs;
    (* Waves never add to the pending list and the boxes are fixed, so the
       whole iteration's waves are known before the first one runs. *)
    let waves = state.waves in
    Wave.build waves ~cols ~rows ~boxes ~pend:state.pend.a state.pend.n;
    for w = 0 to Wave.count waves - 1 do
      Cancel.check cancel;
      process_wave grid cancel state segs (Wave.start waves w)
        (Wave.start waves (w + 1))
    done;
    overflow := Rgrid.total_overflow grid
  done

let build_result grid state segments ~gcell_start ~net_gcells =
  let num_nets = Array.length gcell_start - 1 in
  let cols = grid.Rgrid.cols in
  let nh = Rgrid.num_hedges grid in
  let data = Arena.data state.arena in
  let edge_of_id eid =
    if eid < nh then Rgrid.H (eid mod (cols - 1), eid / (cols - 1))
    else begin
      let j = eid - nh in
      Rgrid.V (j mod cols, j / cols)
    end
  in
  let net_length = Array.make num_nets 0.0 in
  let routes =
    Array.map
      (fun seg ->
        net_length.(seg.net) <-
          net_length.(seg.net)
          +. (float_of_int seg.len *. grid.Rgrid.gcell_um);
        let edges = ref [] in
        for i = seg.off + seg.len - 1 downto seg.off do
          edges := edge_of_id (Bigarray.Array1.get data i) :: !edges
        done;
        { net = seg.net; gends = seg.ends; edges = !edges })
      segments
  in
  let wirelength = Array.fold_left ( +. ) 0.0 net_length in
  let overflow = Rgrid.total_overflow grid in
  let max_util = Rgrid.max_utilization grid in
  Metrics.set g_overflow overflow;
  Metrics.set g_max_utilization max_util;
  {
    grid;
    violations = int_of_float (ceil overflow);
    total_overflow = overflow;
    wirelength_um = wirelength;
    max_utilization = max_util;
    num_nets;
    num_segments = Array.length segments;
    net_length_um = net_length;
    routes;
    gcell_start;
    net_gcells;
  }

let float_bits f = Int64.to_int (Int64.bits_of_float f)

module Request = struct
  type t = {
    config : config;
    floorplan : Cals_place.Floorplan.t;
    wire : Cals_cell.Library.wire_model;
    cols : int;
    rows : int;
    gcell_um : float;
    pin_start : int array;
    pins : Geom.point array;
    pin_gcells : int array;
    gcell_start : int array;
    net_gcells : int array;
    density : Grid2d.t option;
  }

  let num_nets req = Array.length req.pin_start - 1

  (* Insertion sort for the at most a few dozen gcells of nearly every
     net; [Array.sort] past 64, where a high-fanout net would make it
     quadratic. *)
  let sort_gcells (a : int array) =
    if Array.length a > 64 then Array.sort Int.compare a
    else
      for i = 1 to Array.length a - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done

  (* The one place pins become gcells: each pin's id, then each net's
     sorted distinct ids, compacted into one array. *)
  let make ?(config = default_config) ?density ~floorplan ~wire pin_start pins
      =
    let cols, rows, gcell_um = Rgrid.dims ~floorplan in
    let pin_gcells = Array.map (Rgrid.gcell_id ~cols ~rows ~gcell_um) pins in
    let n = Array.length pin_start - 1 in
    let cells = Array.make (Array.length pins) 0 in
    let gcell_start = Array.make (n + 1) 0 in
    let k = ref 0 in
    for net = 0 to n - 1 do
      let lo = pin_start.(net) in
      let sorted = Array.sub pin_gcells lo (pin_start.(net + 1) - lo) in
      sort_gcells sorted;
      Array.iteri
        (fun i g ->
          if i = 0 || g <> sorted.(i - 1) then begin
            cells.(!k) <- g;
            incr k
          end)
        sorted;
      gcell_start.(net + 1) <- !k
    done;
    { config; floorplan; wire; cols; rows; gcell_um; pin_start; pins;
      pin_gcells; gcell_start; net_gcells = Array.sub cells 0 !k; density }

  let of_pins ?config ?density ~floorplan ~wire nets =
    let pin_start = Array.make (Array.length nets + 1) 0 in
    Array.iteri
      (fun i pins -> pin_start.(i + 1) <- pin_start.(i) + List.length pins)
      nets;
    let pins = Array.of_list (List.concat (Array.to_list nets)) in
    make ?config ?density ~floorplan ~wire pin_start pins

  let of_mapped ?config mapped ~floorplan ~wire
      ~(placement : Cals_place.Placement.mapped_placement) =
    let nets = placement.Cals_place.Placement.nets in
    let pins =
      Array.map (Cals_place.Placement.pin_position placement) nets.Mapped.pins
    in
    let req = make ?config ~floorplan ~wire nets.Mapped.first pins in
    let { cols; rows; gcell_um; _ } = req in
    (* Cell-area fraction per gcell, for the M1 blockage model. *)
    let density = Grid2d.create ~cols ~rows 0.0 in
    Array.iteri
      (fun i inst ->
        let c, r =
          Rgrid.gcell_at ~cols ~rows ~gcell_um
            placement.Cals_place.Placement.cell_pos.(i)
        in
        Grid2d.add density c r inst.Mapped.cell.Cals_cell.Cell.area)
      mapped.Mapped.instances;
    Grid2d.map_inplace (fun a -> a /. (gcell_um *. gcell_um)) density;
    { req with density = Some density }

  (* Everything a route's result depends on: grid geometry, config, wire
     pitch, density contents and the per-net gcell sets. Two requests
     with equal fingerprints route to bit-identical results, because
     routing is deterministic in exactly these inputs. *)
  let fingerprint req =
    let config = req.config in
    let h = ref (Fnv.int Fnv.empty 0x726f757465) in
    h := Fnv.int !h req.cols;
    h := Fnv.int !h req.rows;
    h := Fnv.int !h (float_bits req.gcell_um);
    h := Fnv.int !h config.layers;
    h := Fnv.int !h config.reroute_iterations;
    h := Fnv.int !h (float_bits req.wire.Cals_cell.Library.pitch_um);
    (match req.density with
    | None -> h := Fnv.int !h 0
    | Some g ->
      h := Fnv.int !h 1;
      h := Fnv.int !h (Grid2d.cols g);
      h := Fnv.int !h (Grid2d.rows g);
      h := Grid2d.fold (fun _ _ v acc -> Fnv.int acc (float_bits v)) g !h);
    h := Fnv.int !h (num_nets req);
    for net = 0 to num_nets req - 1 do
      let lo = req.gcell_start.(net) and hi = req.gcell_start.(net + 1) in
      h := Fnv.int !h (hi - lo);
      for i = lo to hi - 1 do
        h := Fnv.int !h req.net_gcells.(i)
      done
    done;
    !h
end

module Session = struct
  type stats = {
    route_calls : int;
    replays : int;
    nets_rerouted : int;
  }

  type t = {
    full : (int64, result) Hashtbl.t;
    mutable route_calls : int;
    mutable replays : int;
    mutable nets_rerouted : int;
  }

  let create () =
    { full = Hashtbl.create 16; route_calls = 0; replays = 0; nets_rerouted = 0 }

  let stats s =
    {
      route_calls = s.route_calls;
      replays = s.replays;
      nets_rerouted = s.nets_rerouted;
    }
end

(* Every net's two-pin segments, in net order, as [f net src dst] on
   gcell ids: the MST of its distinct pin gcells, derived on demand. The
   router and the cut certificate both take their segments from here, so
   they cannot diverge. *)
let iter_segments (req : Request.t) f =
  let { Request.gcell_start; net_gcells; rows; _ } = req in
  let widest = ref 0 in
  for net = 0 to Request.num_nets req - 1 do
    widest := max !widest (gcell_start.(net + 1) - gcell_start.(net))
  done;
  let scratch = Topology.scratch !widest in
  for net = 0 to Request.num_nets req - 1 do
    Topology.iter_mst scratch ~rows net_gcells gcell_start.(net)
      gcell_start.(net + 1) (f net)
  done

module Cut = struct
  type axis = Column | Row

  type line = {
    axis : axis;
    index : int;
    crossings : int;
    floored_capacity : int;
  }

  type t = {
    certified : bool;
    bound : float;
    worst : line;
  }

  (* A segment whose ends lie on both sides of a cut line is committed
     as a 4-connected path, so it adds at least 1.0 to one edge of that
     line. Usage is integral: more crossings than the line's floored
     capacities overflow some edge, whatever negotiation does. The
     capacities are [Rgrid.create]'s, computed without building a
     grid. *)
  let of_request (req : Request.t) =
    let { Request.config; cols; rows; gcell_um; _ } = req in
    let model =
      Rgrid.track_model ~gcell_um ~wire:req.Request.wire ~layers:config.layers
        ?density:req.Request.density ()
    in
    (* Difference arrays: a segment spanning columns [lo, hi) crosses
       column lines lo .. hi-1. *)
    let dcol = Array.make cols 0 and drow = Array.make rows 0 in
    iter_segments req (fun _ src dst ->
        let c1 = src / rows and r1 = src mod rows in
        let c2 = dst / rows and r2 = dst mod rows in
        if c1 <> c2 then begin
          dcol.(min c1 c2) <- dcol.(min c1 c2) + 1;
          dcol.(max c1 c2) <- dcol.(max c1 c2) - 1
        end;
        if r1 <> r2 then begin
          drow.(min r1 r2) <- drow.(min r1 r2) + 1;
          drow.(max r1 r2) <- drow.(max r1 r2) - 1
        end);
    let certified = ref false and bound = ref 0.0 and worst = ref None in
    let consider axis index crossings ~cap ~floored =
      if crossings > floored then certified := true;
      let excess = float_of_int crossings -. cap in
      if excess > 0.0 then bound := !bound +. excess;
      match !worst with
      | Some w when w.crossings - w.floored_capacity >= crossings - floored -> ()
      | _ ->
        worst := Some { axis; index; crossings; floored_capacity = floored }
    in
    let line axis index crossings ~edges ~capacity =
      let cap = ref 0.0 and floored = ref 0 in
      for i = 0 to edges - 1 do
        let e = capacity i in
        cap := !cap +. e;
        floored := !floored + int_of_float (Float.floor e)
      done;
      consider axis index crossings ~cap:!cap ~floored:!floored
    in
    let run = ref 0 in
    for c = 0 to cols - 2 do
      run := !run + dcol.(c);
      line Column c !run ~edges:rows ~capacity:(fun r ->
          Rgrid.hcapacity model c r)
    done;
    run := 0;
    for r = 0 to rows - 2 do
      run := !run + drow.(r);
      line Row r !run ~edges:cols ~capacity:(fun c ->
          Rgrid.vcapacity model c r)
    done;
    (* [Rgrid.dims] keeps at least two columns, so a column line exists. *)
    { certified = !certified; bound = !bound; worst = Option.get !worst }

  (* The router sums the same overflow edge by edge, in another order: a
     bound of 124.00000000000001 against a routed 124.0 exactly is float
     rounding, not a violation more. The slack keeps [ceil] below it. *)
  let rounding_slack = 1e-6

  let violations t = max 1 (int_of_float (ceil (t.bound -. rounding_slack)))

  let axis_to_string = function Column -> "column" | Row -> "row"
end

let route_cold ~cancel (req : Request.t) =
  let config = req.Request.config in
  let state = Domain.DLS.get state_key in
  Arena.clear state.arena;
  let grid =
    Rgrid.create ~floorplan:req.Request.floorplan ~wire:req.Request.wire
      ~layers:config.layers ?density:req.Request.density ()
  in
  let rows = req.Request.rows in
  let segments = ref [] in
  iter_segments req (fun net src dst ->
      segments :=
        {
          net;
          ends = ((src / rows, src mod rows), (dst / rows, dst mod rows));
          off = 0;
          len = 0;
        }
        :: !segments);
  let segments = Array.of_list (List.rev !segments) in
  (* Initial pattern routing, long segments first (they are the hardest to
     place once the grid fills up). *)
  let order = Array.init (Array.length segments) (fun i -> i) in
  Array.sort
    (fun a b ->
      let len s =
        let (c1, r1), (c2, r2) = segments.(s).ends in
        abs (c1 - c2) + abs (r1 - r2)
      in
      compare (len b) (len a))
    order;
  Cancel.check cancel;
  Span.with_ ~cat:"route" "route.pattern" (fun () ->
      Array.iter (fun i -> pattern_route grid state segments.(i)) order);
  let negotiate_token = Span.enter ~cat:"route" "route.negotiate" in
  Fun.protect ~finally:(fun () -> Span.exit negotiate_token) @@ fun () ->
  negotiate ~iterations:config.reroute_iterations grid cancel state segments;
  build_result grid state segments ~gcell_start:req.Request.gcell_start
    ~net_gcells:req.Request.net_gcells

let route ?(cancel = Cancel.never) ?session (req : Request.t) =
  let num_nets = Request.num_nets req in
  Span.with_ ~cat:"route"
    ~meta:(Printf.sprintf "%d nets" num_nets)
    "route.route_pins"
  @@ fun () ->
  match session with
  | None -> route_cold ~cancel req
  | Some s -> (
    Cancel.check cancel;
    let fp = Request.fingerprint req in
    s.Session.route_calls <- s.Session.route_calls + 1;
    match Hashtbl.find_opt s.Session.full fp with
    | Some r ->
      s.Session.replays <- s.Session.replays + 1;
      Metrics.incr m_session_replays;
      r
    | None ->
      let r = route_cold ~cancel req in
      s.Session.nets_rerouted <- s.Session.nets_rerouted + num_nets;
      Metrics.add m_session_nets_rerouted num_nets;
      Hashtbl.replace s.Session.full fp r;
      r)

let route_mapped ?session mapped ~floorplan ~wire ~placement =
  route ?session (Request.of_mapped mapped ~floorplan ~wire ~placement)
