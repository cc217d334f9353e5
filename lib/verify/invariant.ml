module Geom = Cals_util.Geom
module Union_find = Cals_util.Union_find
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Mapped = Cals_netlist.Mapped
module Router = Cals_route.Router
module Rgrid = Cals_route.Rgrid
module Cell = Cals_cell.Cell

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ---------------- Placement ---------------- *)

let check_placement ~floorplan mapped (pl : Placement.mapped_placement) =
  let fp = floorplan in
  let instances = mapped.Mapped.instances in
  let n = Array.length instances in
  let* () =
    if Array.length pl.Placement.cell_pos <> n then
      errf "placement has %d cell positions for %d instances"
        (Array.length pl.Placement.cell_pos) n
    else if Array.length pl.Placement.pi_pos <> Array.length mapped.Mapped.pi_names
    then errf "placement PI pad count mismatch"
    else if Array.length pl.Placement.po_pos <> Array.length mapped.Mapped.outputs
    then errf "placement PO pad count mismatch"
    else if Array.length pl.Placement.row_fill <> fp.Floorplan.num_rows then
      errf "row_fill has %d entries for %d rows"
        (Array.length pl.Placement.row_fill) fp.Floorplan.num_rows
    else Ok ()
  in
  let site = fp.Floorplan.site_width in
  (* Site intervals per row, re-derived from cell centers. *)
  let rows : (int * int * int) list array = Array.make fp.Floorplan.num_rows [] in
  let rec place i =
    if i >= n then Ok ()
    else begin
      let p = pl.Placement.cell_pos.(i) in
      let w = instances.(i).Mapped.cell.Cell.width_sites in
      match Floorplan.row_of_y fp p.Geom.y with
      | None -> errf "cell %d center y=%.4f um is on no row" i p.Geom.y
      | Some r ->
        let start_f = (p.Geom.x /. site) -. (float_of_int w /. 2.0) in
        let start = int_of_float (Float.round start_f) in
        if abs_float (start_f -. float_of_int start) > 1e-4 then
          errf "cell %d is off the site grid (x=%.4f um)" i p.Geom.x
        else if start < 0 || start + w > fp.Floorplan.sites_per_row then
          errf "cell %d spills out of its row (sites %d..%d of %d)" i start
            (start + w) fp.Floorplan.sites_per_row
        else begin
          rows.(r) <- (start, start + w, i) :: rows.(r);
          place (i + 1)
        end
    end
  in
  let* () = place 0 in
  let rec check_rows r =
    if r >= fp.Floorplan.num_rows then Ok ()
    else begin
      let cells =
        List.sort (fun (a, _, _) (b, _, _) -> compare a b) rows.(r)
      in
      let rec scan frontier = function
        | [] ->
          if pl.Placement.row_fill.(r) <> frontier then
            errf "row %d: recorded fill %d sites, re-derived %d" r
              pl.Placement.row_fill.(r) frontier
          else check_rows (r + 1)
        | (start, stop, i) :: rest ->
          if start < frontier then
            errf "cell %d overlaps its left neighbour in row %d (site %d < %d)"
              i r start frontier
          else scan stop rest
      in
      scan 0 cells
    end
  in
  check_rows 0

(* ---------------- Routing ---------------- *)

(* Gcells incident to an edge, as flat node ids; Error for edges outside
   the grid (the accessors would raise, which we want to diagnose). *)
let edge_nodes cols rows = function
  | Rgrid.H (c, r) ->
    if c < 0 || c >= cols - 1 || r < 0 || r >= rows then None
    else Some ((r * cols) + c, (r * cols) + c + 1)
  | Rgrid.V (c, r) ->
    if c < 0 || c >= cols || r < 0 || r >= rows - 1 then None
    else Some ((r * cols) + c, ((r + 1) * cols) + c)

let edge_to_string = function
  | Rgrid.H (c, r) -> Printf.sprintf "H(%d,%d)" c r
  | Rgrid.V (c, r) -> Printf.sprintf "V(%d,%d)" c r

let check_routing ?(usage = true) (res : Router.result) =
  let grid = res.Router.grid in
  let cols = grid.Rgrid.cols and rows = grid.Rgrid.rows in
  let node (c, r) = (r * cols) + c in
  let num_nets = res.Router.num_nets in
  let gcell_start = res.Router.gcell_start and gcells = res.Router.net_gcells in
  let* () =
    if Array.length gcell_start <> num_nets + 1 then
      errf "gcell_start has %d entries for %d nets"
        (Array.length gcell_start) num_nets
    else if
      gcell_start.(0) <> 0
      || gcell_start.(num_nets) <> Array.length gcells
      || not (Seq.for_all (fun n -> gcell_start.(n) <= gcell_start.(n + 1))
                (Seq.init num_nets Fun.id))
    then errf "gcell_start does not slice net_gcells"
    else if Array.length res.Router.net_length_um <> num_nets then
      errf "net_length_um has %d entries for %d nets"
        (Array.length res.Router.net_length_um)
        num_nets
    else Ok ()
  in
  (* Per-net segment lists, preserving the route order. *)
  let by_net = Array.make num_nets [] in
  let rec bucket i =
    if i >= Array.length res.Router.routes then Ok ()
    else begin
      let rt = res.Router.routes.(i) in
      if rt.Router.net < 0 || rt.Router.net >= num_nets then
        errf "route %d references net %d of %d" i rt.Router.net num_nets
      else begin
        by_net.(rt.Router.net) <- rt :: by_net.(rt.Router.net);
        bucket (i + 1)
      end
    end
  in
  let* () = bucket 0 in
  let check_net net =
    let segments = List.rev by_net.(net) in
    let lo = gcell_start.(net) and hi = gcell_start.(net + 1) in
    let pins =
      List.init (hi - lo) (fun i -> (gcells.(lo + i) / rows, gcells.(lo + i) mod rows))
    in
    match (segments, pins) with
    | [], ([] | [ _ ]) -> Ok ()
    | _ ->
      let uf = Union_find.create (cols * rows) in
      let rec link_segments = function
        | [] -> Ok ()
        | rt :: rest ->
          let src, dst = rt.Router.gends in
          let rec link_edges = function
            | [] ->
              if src <> dst && rt.Router.edges = [] then
                errf "net %d: segment (%d,%d)-(%d,%d) has no path" net
                  (fst src) (snd src) (fst dst) (snd dst)
              else if not (Union_find.same uf (node src) (node dst)) then
                errf "net %d: segment (%d,%d)-(%d,%d) path does not connect \
                      its endpoints"
                  net (fst src) (snd src) (fst dst) (snd dst)
              else link_segments rest
            | e :: es -> (
              match edge_nodes cols rows e with
              | None ->
                errf "net %d: edge %s outside the %dx%d grid" net
                  (edge_to_string e) cols rows
              | Some (a, b) ->
                ignore (Union_find.union uf a b : bool);
                link_edges es)
          in
          link_edges rt.Router.edges
      in
      let* () = link_segments segments in
      (* Every pin gcell of the net must land in one component. *)
      let rec link_pins anchor = function
        | [] -> Ok ()
        | g :: rest ->
          if not (Union_find.same uf (node anchor) (node g)) then
            errf "net %d: pin gcell (%d,%d) is not connected to (%d,%d)" net
              (fst g) (snd g) (fst anchor) (snd anchor)
          else link_pins anchor rest
      in
      (match pins with [] -> Ok () | anchor :: rest -> link_pins anchor rest)
  in
  let rec all_nets net =
    if net >= num_nets then Ok ()
    else
      let* () = check_net net in
      all_nets (net + 1)
  in
  let* () = all_nets 0 in
  if not usage then Ok ()
  else begin
    (* Re-derive per-edge usage and per-net lengths from the routes alone
       and compare with what the router accumulated incrementally. *)
    let husage = Array.make (Array.length grid.Rgrid.husage) 0.0 in
    let vusage = Array.make (Array.length grid.Rgrid.vusage) 0.0 in
    let net_length = Array.make num_nets 0.0 in
    Array.iter
      (fun rt ->
        List.iter
          (fun e ->
            (match e with
            | Rgrid.H (c, r) ->
              husage.((r * (cols - 1)) + c) <- husage.((r * (cols - 1)) + c) +. 1.0
            | Rgrid.V (c, r) ->
              vusage.((r * cols) + c) <- vusage.((r * cols) + c) +. 1.0);
            net_length.(rt.Router.net) <-
              net_length.(rt.Router.net) +. grid.Rgrid.gcell_um)
          rt.Router.edges)
      res.Router.routes;
    let eps = 1e-6 in
    let mismatch kind i expected actual =
      errf "%s usage mismatch on edge %d: grid has %.3f, routes re-derive %.3f"
        kind i actual expected
    in
    let rec cmp kind derived actual i =
      if i >= Array.length derived then Ok ()
      else if abs_float (derived.(i) -. actual.(i)) > eps then
        mismatch kind i derived.(i) actual.(i)
      else cmp kind derived actual (i + 1)
    in
    let* () = cmp "horizontal" husage grid.Rgrid.husage 0 in
    let* () = cmp "vertical" vusage grid.Rgrid.vusage 0 in
    let rec cmp_len net =
      if net >= num_nets then Ok ()
      else if
        abs_float (net_length.(net) -. res.Router.net_length_um.(net))
        > eps *. (1.0 +. abs_float net_length.(net))
      then
        errf "net %d: recorded length %.3f um, routes re-derive %.3f um" net
          res.Router.net_length_um.(net) net_length.(net)
      else cmp_len (net + 1)
    in
    let* () = cmp_len 0 in
    let wirelength = Array.fold_left ( +. ) 0.0 net_length in
    let* () =
      if
        abs_float (wirelength -. res.Router.wirelength_um)
        > eps *. (1.0 +. abs_float wirelength)
      then
        errf "total wirelength %.3f um does not match re-derived %.3f um"
          res.Router.wirelength_um wirelength
      else Ok ()
    in
    let overflow = Rgrid.total_overflow grid in
    if abs_float (overflow -. res.Router.total_overflow) > eps then
      errf "reported overflow %.3f does not match the grid's %.3f"
        res.Router.total_overflow overflow
    else if res.Router.violations <> int_of_float (ceil overflow) then
      errf "reported violations %d do not match ceil(overflow) = %d"
        res.Router.violations
        (int_of_float (ceil overflow))
    else Ok ()
  end
