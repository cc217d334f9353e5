module Geom = Cals_util.Geom
module Grid2d = Cals_util.Grid2d
module Rgrid = Cals_route.Rgrid
module Router = Cals_route.Router
module Congestion = Cals_route.Congestion
module Metrics = Cals_telemetry.Metrics
module Span = Cals_telemetry.Span

let m_forecasts =
  Metrics.counter ~help:"Congestion forecasts computed" "estimate_forecasts"

let m_routable =
  Metrics.counter ~help:"Forecasts with a confident Routable verdict"
    "estimate_verdict_routable"

let m_unroutable =
  Metrics.counter ~help:"Forecasts certified Unroutable by a cut line"
    "estimate_verdict_unroutable"

let m_uncertain =
  Metrics.counter ~help:"Forecasts near the boundary (or degenerate)"
    "estimate_verdict_uncertain"

let m_seconds =
  Metrics.histogram ~help:"Wall seconds per forecast"
    ~buckets:[| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0 |]
    "estimate_seconds"

type verdict = Routable | Unroutable | Uncertain

type policy = Off | Prune | Triage

type maps = {
  cols : int;
  rows : int;
  gcell_um : float;
  wire_density : Grid2d.t;
  pin_density : Grid2d.t;
  supply : Grid2d.t;
  utilization : Grid2d.t;
}

type forecast = {
  maps : maps;
  overflow_score : float;
  normalized_overflow : float;
  peak_utilization : float;
  hot_fraction : float;
  predicted_violations : int;
  hpwl_um : float;
  cut : Router.Cut.t;
  verdict : verdict;
}

(* ------------------------- calibration ------------------------- *)

(* Fitted against the real router on the golden corpus (always routable,
   utilization 0.42-0.53). Only the Routable band is fitted, and only
   the serve Triage rung reads it: there a wrong Routable accepts a K
   that a real route would reject (such results are marked estimated).
   The adaptive search ignores it, and outside Triage acceptance always
   rides a real route. Unroutable is never a fit; it is the cut
   certificate's proof. *)
let pin_track_cost = 0.125
let negotiation_relief = 0.5
let routable_max_norm = 1e-4
let routable_max_peak = 0.8

let verdict_of_scores ~degenerate ~normalized_overflow ~peak_utilization =
  if degenerate then Uncertain
  else if
    normalized_overflow <= routable_max_norm
    && peak_utilization <= routable_max_peak
  then Routable
  else Uncertain

(* The thresholds are meaningless when the grid barely exists or offers
   no capacity, and a netlist with no two-pin net has no routing demand
   to score — all three answer Uncertain rather than a confident
   Routable. *)
let degenerate_scores ~cols ~rows ~total_supply ~routable_nets =
  cols * rows <= 4 || total_supply <= 1e-9 || routable_nets = 0

let verdict_to_string = function
  | Routable -> "routable"
  | Unroutable -> "unroutable"
  | Uncertain -> "uncertain"

(* ------------------------- the forecast ------------------------- *)

let forecast (req : Router.Request.t) =
  let { Router.Request.config; cols; rows; gcell_um; pin_start; pins;
        pin_gcells; gcell_start; _ } =
    req
  in
  let num_nets = Router.Request.num_nets req in
  Span.with_ ~cat:"estimate"
    ~meta:(Printf.sprintf "%d nets" num_nets)
    "estimate.forecast"
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Metrics.incr m_forecasts;
  let wire_density = Grid2d.create ~cols ~rows 0.0 in
  let pin_density = Grid2d.create ~cols ~rows 0.0 in
  let supply = Grid2d.create ~cols ~rows 0.0 in
  (* The router's track model, folded per gcell: the layers above M1
     contribute [tracks] full track-lengths in each direction, M1 the
     share the standard cells leave over in both. *)
  let { Rgrid.tracks; nh; nv; density_at } =
    Rgrid.track_model ~gcell_um ~wire:req.Router.Request.wire
      ~layers:config.Router.layers ?density:req.Router.Request.density ()
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let d = density_at c r in
      Grid2d.set supply c r
        (tracks
        *. (nh +. nv +. (2.0 *. Rgrid.m1_free *. (1.0 -. d))))
    done
  done;
  let hpwl_total = ref 0.0 in
  let routable_nets = ref 0 in
  for net = 0 to num_nets - 1 do
    let lo = pin_start.(net) and hi = pin_start.(net + 1) in
    if lo < hi then begin
      let first = pins.(lo) in
      let x0 = ref first.Geom.x and x1 = ref first.Geom.x in
      let y0 = ref first.Geom.y and y1 = ref first.Geom.y in
      for i = lo + 1 to hi - 1 do
        let p = pins.(i) in
        if p.Geom.x < !x0 then x0 := p.Geom.x;
        if p.Geom.x > !x1 then x1 := p.Geom.x;
        if p.Geom.y < !y0 then y0 := p.Geom.y;
        if p.Geom.y > !y1 then y1 := p.Geom.y
      done;
      for i = lo to hi - 1 do
        let g = pin_gcells.(i) in
        let c = g / rows and r = g mod rows in
        Grid2d.add pin_density c r 1.0;
        Grid2d.add wire_density c r pin_track_cost
      done;
      if gcell_start.(net + 1) - gcell_start.(net) >= 2 then incr routable_nets;
      let hpwl = !x1 -. !x0 +. (!y1 -. !y0) in
      hpwl_total := !hpwl_total +. hpwl;
      if hpwl > 0.0 then begin
        (* RUDY spread: the net's HPWL worth of wire, uniform over its
           bounding box inflated by half a gcell per side (so zero-area
           boxes — straight-line nets — still cover real area). *)
        let half = gcell_um /. 2.0 in
        let bx0 = !x0 -. half and bx1 = !x1 +. half in
        let by0 = !y0 -. half and by1 = !y1 +. half in
        let area = (bx1 -. bx0) *. (by1 -. by0) in
        let c_lo = Rgrid.gcell_index ~gcell_um ~n:cols bx0 in
        let c_hi = Rgrid.gcell_index ~gcell_um ~n:cols bx1 in
        let r_lo = Rgrid.gcell_index ~gcell_um ~n:rows by0 in
        let r_hi = Rgrid.gcell_index ~gcell_um ~n:rows by1 in
        let per_area = hpwl /. max 1e-9 area /. gcell_um in
        for r = r_lo to r_hi do
          let gy0 = float_of_int r *. gcell_um in
          let oy = Float.min by1 (gy0 +. gcell_um) -. Float.max by0 gy0 in
          if oy > 0.0 then
            for c = c_lo to c_hi do
              let gx0 = float_of_int c *. gcell_um in
              let ox = Float.min bx1 (gx0 +. gcell_um) -. Float.max bx0 gx0 in
              if ox > 0.0 then
                Grid2d.add wire_density c r (ox *. oy *. per_area)
            done
        done
      end
    end
  done;
  let utilization = Grid2d.create ~cols ~rows 0.0 in
  let overflow = ref 0.0 in
  let total_supply = ref 0.0 in
  let peak = ref 0.0 in
  let hot = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let d = Grid2d.get wire_density c r in
      let s = Grid2d.get supply c r in
      total_supply := !total_supply +. s;
      let u = d /. max 1e-9 s in
      Grid2d.set utilization c r u;
      if u > !peak then peak := u;
      if u > Congestion.hot_threshold then incr hot;
      if d > s then overflow := !overflow +. (d -. s)
    done
  done;
  let normalized_overflow = !overflow /. max 1e-9 !total_supply in
  let deg =
    degenerate_scores ~cols ~rows ~total_supply:!total_supply
      ~routable_nets:!routable_nets
  in
  (* A proof beats a score: a certified request is Unroutable even where
     the RUDY map looks clean. *)
  let cut = Router.Cut.of_request req in
  let verdict =
    if cut.Router.Cut.certified then Unroutable
    else
      verdict_of_scores ~degenerate:deg ~normalized_overflow
        ~peak_utilization:!peak
  in
  Metrics.incr
    (match verdict with
    | Routable -> m_routable
    | Unroutable -> m_unroutable
    | Uncertain -> m_uncertain);
  let predicted_violations =
    match verdict with
    | Routable -> 0
    | Unroutable -> Router.Cut.violations cut
    | Uncertain ->
      int_of_float (Float.round ((1.0 -. negotiation_relief) *. !overflow))
  in
  let f =
    {
      maps =
        { cols; rows; gcell_um; wire_density; pin_density; supply;
          utilization };
      overflow_score = !overflow;
      normalized_overflow;
      peak_utilization = !peak;
      hot_fraction = float_of_int !hot /. float_of_int (max 1 (cols * rows));
      predicted_violations;
      hpwl_um = !hpwl_total;
      cut;
      verdict;
    }
  in
  Metrics.observe m_seconds (Unix.gettimeofday () -. t0);
  f

let forecast_mapped mapped ~floorplan ~wire ~placement =
  forecast (Router.Request.of_mapped mapped ~floorplan ~wire ~placement)

let report f =
  {
    Congestion.violations = f.predicted_violations;
    total_overflow = f.overflow_score;
    max_utilization = f.peak_utilization;
    congested_gcell_fraction = f.hot_fraction;
    wirelength_um = f.hpwl_um;
  }
