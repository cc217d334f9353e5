type counter = { c_name : string; c_help : string; cell : int Atomic.t }
type gauge = { g_name : string; g_help : string; value : float Atomic.t }

type histogram = {
  h_name : string;
  h_help : string;
  bounds : float array;
  buckets : int Atomic.t array;  (* length = Array.length bounds + 1 *)
  total : int Atomic.t;
  sum : float Atomic.t;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry_mutex = Mutex.create ()
let registry : instrument list ref = ref []  (* reverse registration order *)

let instrument_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let register name make =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) @@ fun () ->
  match List.find_opt (fun i -> instrument_name i = name) !registry with
  | Some existing -> existing
  | None ->
    let i = make () in
    registry := i :: !registry;
    i

let counter ?(help = "") name =
  match
    register name (fun () ->
        Counter { c_name = name; c_help = help; cell = Atomic.make 0 })
  with
  | Counter c -> c
  | Gauge _ | Histogram _ ->
    invalid_arg ("Metrics.counter: " ^ name ^ " registered as another kind")

let gauge ?(help = "") name =
  match
    register name (fun () ->
        Gauge { g_name = name; g_help = help; value = Atomic.make 0.0 })
  with
  | Gauge g -> g
  | Counter _ | Histogram _ ->
    invalid_arg ("Metrics.gauge: " ^ name ^ " registered as another kind")

let histogram ?(help = "") ~buckets name =
  let ok = ref (Array.length buckets > 0) in
  Array.iteri
    (fun i b -> if i > 0 && buckets.(i - 1) >= b then ok := false)
    buckets;
  if not !ok then
    invalid_arg "Metrics.histogram: buckets must be non-empty and increasing";
  match
    register name (fun () ->
        Histogram
          {
            h_name = name;
            h_help = help;
            bounds = Array.copy buckets;
            buckets = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
            total = Atomic.make 0;
            sum = Atomic.make 0.0;
          })
  with
  | Histogram h -> h
  | Counter _ | Gauge _ ->
    invalid_arg ("Metrics.histogram: " ^ name ^ " registered as another kind")

let add c n = if Probe.enabled () then ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1
let set g v = if Probe.enabled () then Atomic.set g.value v

let rec atomic_add_float cell d =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. d)) then
    atomic_add_float cell d

let observe h v =
  if Probe.enabled () then begin
    let n = Array.length h.bounds in
    let rec bucket i = if i >= n || v <= h.bounds.(i) then i else bucket (i + 1) in
    ignore (Atomic.fetch_and_add h.buckets.(bucket 0) 1);
    ignore (Atomic.fetch_and_add h.total 1);
    atomic_add_float h.sum v
  end

type counter_value = { c_name : string; c_help : string; c_value : int }
type gauge_value = { g_name : string; g_help : string; g_value : float }

type histogram_value = {
  h_name : string;
  h_help : string;
  h_bounds : float array;
  h_counts : int array;
  h_count : int;
  h_sum : float;
}

type snapshot = {
  counters : counter_value list;
  gauges : gauge_value list;
  histograms : histogram_value list;
}

let snapshot () =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) @@ fun () ->
  let ordered = List.rev !registry in
  {
    counters =
      List.filter_map
        (function
          | Counter c ->
            Some
              {
                c_name = c.c_name;
                c_help = c.c_help;
                c_value = Atomic.get c.cell;
              }
          | Gauge _ | Histogram _ -> None)
        ordered;
    gauges =
      List.filter_map
        (function
          | Gauge g ->
            Some
              {
                g_name = g.g_name;
                g_help = g.g_help;
                g_value = Atomic.get g.value;
              }
          | Counter _ | Histogram _ -> None)
        ordered;
    histograms =
      List.filter_map
        (function
          | Histogram h ->
            Some
              {
                h_name = h.h_name;
                h_help = h.h_help;
                h_bounds = Array.copy h.bounds;
                h_counts = Array.map Atomic.get h.buckets;
                h_count = Atomic.get h.total;
                h_sum = Atomic.get h.sum;
              }
          | Counter _ | Gauge _ -> None)
        ordered;
  }
