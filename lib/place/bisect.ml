module Geom = Cals_util.Geom
module Span = Cals_telemetry.Span
module Metrics = Cals_telemetry.Metrics

let leaf_size = 4

let m_regions =
  Metrics.counter ~help:"Bisection regions partitioned" "bisect_regions"

let place (hg : Hypergraph.t) ~floorplan ~rng =
  Span.with_ ~cat:"place"
    ~meta:(Printf.sprintf "%d nodes" (Hypergraph.num_nodes hg))
    "place.bisect"
  @@ fun () ->
  let n = Hypergraph.num_nodes hg and nets = hg.Hypergraph.nets in
  let pos = Array.make n (Geom.point 0.0 0.0) in
  let center =
    Geom.point (floorplan.Floorplan.die_width /. 2.0)
      (floorplan.Floorplan.die_height /. 2.0)
  in
  Array.iteri
    (fun i f -> pos.(i) <- (match f with Some p -> p | None -> center))
    hg.Hypergraph.fixed;
  (* The scratch, sized to the root region. A region is a slice of
     [nodes] and a slice of the net stack [region_nets]. A net waits in
     a pending region's slice only with a pin there, and pending regions
     are disjoint, so the stack never outgrows pins + nets. *)
  let nodes =
    Array.of_list
      (List.filter (fun v -> hg.Hypergraph.fixed.(v) = None) (List.init n Fun.id))
  in
  let k_root = Array.length nodes and m = Array.length nets in
  let pins = Array.fold_left (fun a net -> a + Array.length net) 0 nets in
  let fm = Fm.scratch ~nodes:(k_root + 2) ~nets:m ~pins:(pins + (2 * m)) in
  let local = Array.make n (-1) in
  let spare = Array.make k_root 0 in
  let net_of = Array.make m 0 in
  let region_nets = Array.make (pins + m) 0 in
  for e = 0 to m - 1 do
    region_nets.(e) <- e
  done;
  (* Spread the nodes of a leaf region on a local grid. *)
  let distribute lo k (box : Geom.bbox) =
    if k > 0 then begin
      let cols = int_of_float (ceil (sqrt (float_of_int k))) in
      let rows = (k + cols - 1) / cols in
      let w = (box.Geom.hx -. box.Geom.lx) /. float_of_int cols in
      let h = (box.Geom.hy -. box.Geom.ly) /. float_of_int rows in
      for i = 0 to k - 1 do
        let c = i mod cols and r = i / cols in
        pos.(nodes.(lo + i)) <-
          Geom.point
            (box.Geom.lx +. ((float_of_int c +. 0.5) *. w))
            (box.Geom.ly +. ((float_of_int r +. 0.5) *. h))
      done
    end
  in
  (* Region [nodes.(lo .. lo+k-1)]; [region_nets.(nlo .. nhi-1)] holds
     every net with a pin in it. The stack above [nhi] is free. *)
  let rec split lo k nlo nhi (box : Geom.bbox) depth =
    if k <= leaf_size || depth > 40 then distribute lo k box
    else begin
      Metrics.incr m_regions;
      let vertical_cut = box.Geom.hx -. box.Geom.lx >= box.Geom.hy -. box.Geom.ly in
      let mid =
        if vertical_cut then (box.Geom.lx +. box.Geom.hx) /. 2.0
        else (box.Geom.ly +. box.Geom.hy) /. 2.0
      in
      (* Local ids: region nodes then the two anchors [k] and [k + 1]. *)
      for li = 0 to k - 1 do
        local.(nodes.(lo + li)) <- li;
        fm.Fm.weight.(li) <- max 1 hg.Hypergraph.weights.(nodes.(lo + li));
        fm.Fm.lock.(li) <- -1
      done;
      fm.Fm.weight.(k) <- 0;
      fm.Fm.weight.(k + 1) <- 0;
      fm.Fm.lock.(k) <- 0;
      fm.Fm.lock.(k + 1) <- 1;
      (* Local nets in reverse region order, each one's pins as
         [anchor1?; anchor0?; local pins in reverse net order]; a net's
         two anchor slots are reserved before its local pins. *)
      let fm_pins = fm.Fm.pins and top = ref 0 and j = ref 0 in
      for r = nhi - 1 downto nlo do
        let net = nets.(region_nets.(r)) in
        let start = !top + 2 in
        let p = ref start and ext0 = ref false and ext1 = ref false in
        for i = Array.length net - 1 downto 0 do
          let v = net.(i) in
          if local.(v) >= 0 then begin
            fm_pins.(!p) <- local.(v);
            incr p
          end
          else if (if vertical_cut then pos.(v).Geom.x else pos.(v).Geom.y) <= mid
          then ext0 := true
          else ext1 := true
        done;
        if !p > start then begin
          let first = ref start in
          if !ext0 then (decr first; fm_pins.(!first) <- k);
          if !ext1 then (decr first; fm_pins.(!first) <- k + 1);
          fm.Fm.net_lo.(!j) <- !first;
          fm.Fm.net_hi.(!j) <- !p;
          net_of.(!j) <- region_nets.(r);
          incr j;
          top := !p
        end
      done;
      let side = fm.Fm.side in
      Fm.run fm ~rng ~nodes:(k + 2) ~nets:!j;
      (* Cut position proportional to the side weights. *)
      let w0 = ref 0 and w1 = ref 0 and k0 = ref 0 in
      for li = 0 to k - 1 do
        local.(nodes.(lo + li)) <- -1;
        if side.(li) = 0 then (w0 := !w0 + fm.Fm.weight.(li); incr k0)
        else w1 := !w1 + fm.Fm.weight.(li)
      done;
      let frac =
        Geom.clamp 0.1 0.9 (float_of_int !w0 /. float_of_int (!w0 + !w1))
      in
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
      (* Each side's nodes move to its sub-region's center, for terminal
         propagation deeper in the recursion, and into its slice in
         reverse region order. *)
      let center (b : Geom.bbox) =
        Geom.point ((b.Geom.lx +. b.Geom.hx) /. 2.0) ((b.Geom.ly +. b.Geom.hy) /. 2.0)
      in
      let c0 = center box0 and c1 = center box1 in
      let k0 = !k0 in
      let i0 = ref (k0 - 1) and i1 = ref (k - 1) in
      for li = 0 to k - 1 do
        let v = nodes.(lo + li) in
        if side.(li) = 0 then (spare.(!i0) <- v; pos.(v) <- c0; decr i0)
        else (spare.(!i1) <- v; pos.(v) <- c1; decr i1)
      done;
      Array.blit spare 0 nodes lo k;
      (* Each child keeps the local nets with a pin on its side, in local
         net order: side 1's list replaces the region's, side 0's goes
         above it. *)
      let n1 = ref 0 and n0 = ref 0 in
      for e = 0 to !j - 1 do
        let on0 = ref false and on1 = ref false in
        for p = fm.Fm.net_lo.(e) to fm.Fm.net_hi.(e) - 1 do
          let u = fm_pins.(p) in
          if u < k then if side.(u) = 0 then on0 := true else on1 := true
        done;
        if !on1 then (region_nets.(nlo + !n1) <- net_of.(e); incr n1);
        if !on0 then (net_of.(!n0) <- net_of.(e); incr n0)
      done;
      Array.blit net_of 0 region_nets (nlo + !n1) !n0;
      split lo k0 (nlo + !n1) (nlo + !n1 + !n0) box0 (depth + 1);
      split (lo + k0) (k - k0) nlo (nlo + !n1) box1 (depth + 1)
    end
  in
  let die_box =
    {
      Geom.lx = 0.0;
      ly = 0.0;
      hx = floorplan.Floorplan.die_width;
      hy = floorplan.Floorplan.die_height;
    }
  in
  split 0 k_root 0 m die_box 0;
  pos
