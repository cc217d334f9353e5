(* Layer spans recorded by the benchmark around calls into the libraries'
   public functions. A span name is "<layer>.<operation>", the layer being
   the library the call enters (logic, place, core, estimate, route, sta,
   verify). Spans nest: a span's self time is its duration minus the time
   of the spans opened inside it, so per-layer times add up without double
   counting. Allocation is read from the GC around each span the same
   way. Everything stays in memory until the benchmark reports. *)

type stat = {
  mutable calls : int;
  mutable self_s : float;
  mutable self_alloc_bytes : float;
}

let table : (string, stat) Hashtbl.t = Hashtbl.create 32
let enabled = ref false

(* Time and allocation of the spans opened inside the current one. *)
type frame = { mutable child_s : float; mutable child_alloc : float }

let stack : frame list ref = ref []

let stat name =
  match Hashtbl.find_opt table name with
  | Some s -> s
  | None ->
    let s = { calls = 0; self_s = 0.0; self_alloc_bytes = 0.0 } in
    Hashtbl.add table name s;
    s

let span name f =
  if not !enabled then f ()
  else begin
    let frame = { child_s = 0.0; child_alloc = 0.0 } in
    stack := frame :: !stack;
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let dt = Unix.gettimeofday () -. t0 in
      let da = Gc.allocated_bytes () -. a0 in
      stack := List.tl !stack;
      (match !stack with
      | parent :: _ ->
        parent.child_s <- parent.child_s +. dt;
        parent.child_alloc <- parent.child_alloc +. da
      | [] -> ());
      let s = stat name in
      s.calls <- s.calls + 1;
      s.self_s <- s.self_s +. (dt -. frame.child_s);
      s.self_alloc_bytes <- s.self_alloc_bytes +. (da -. frame.child_alloc)
    in
    Fun.protect ~finally:finish f
  end

let seconds name =
  match Hashtbl.find_opt table name with Some s -> s.self_s | None -> 0.0

let calls name =
  match Hashtbl.find_opt table name with Some s -> s.calls | None -> 0

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time summed over every span of [layer] (or of all layers). *)
let total_s ?layer () =
  Hashtbl.fold
    (fun name s acc ->
      match layer with
      | Some l when layer_of name <> l -> acc
      | _ -> acc +. s.self_s)
    table 0.0

let alloc_mb layer =
  Hashtbl.fold
    (fun name s acc ->
      if layer_of name = layer then acc +. (s.self_alloc_bytes /. 1048576.0)
      else acc)
    table 0.0
