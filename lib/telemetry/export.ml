module Tables = Cals_util.Tables

type span_stat = {
  s_name : string;
  s_cat : string;
  s_count : int;
  s_total_us : float;
  s_mean_us : float;
  s_max_us : float;
}

let span_stats () =
  let events = Ring.collect () in
  let order = ref [] in
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (e : Ring.event) ->
      match Hashtbl.find_opt by_name e.Ring.name with
      | None ->
        order := e.Ring.name :: !order;
        Hashtbl.add by_name e.Ring.name
          (ref (e.Ring.cat, 1, e.Ring.dur_us, e.Ring.dur_us))
      | Some acc ->
        let cat, n, total, mx = !acc in
        acc := (cat, n + 1, total +. e.Ring.dur_us, max mx e.Ring.dur_us))
    events;
  List.rev_map
    (fun name ->
      let cat, n, total, mx = !(Hashtbl.find by_name name) in
      {
        s_name = name;
        s_cat = cat;
        s_count = n;
        s_total_us = total;
        s_mean_us = total /. float_of_int n;
        s_max_us = mx;
      })
    !order

(* ---------------- Chrome trace_event JSON ---------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let chrome_trace () =
  let events = Ring.collect () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i (e : Ring.event) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\
            \"dur\":%.3f,\"pid\":1,\"tid\":%d"
           (json_escape e.Ring.name) (json_escape e.Ring.cat) e.Ring.ts_us
           e.Ring.dur_us e.Ring.tid);
      if e.Ring.meta <> "" then
        Buffer.add_string buf
          (Printf.sprintf ",\"args\":{\"detail\":\"%s\"}"
             (json_escape e.Ring.meta));
      Buffer.add_char buf '}')
    events;
  Buffer.add_string buf
    (Printf.sprintf "\n],\"displayTimeUnit\":\"ms\",\"droppedEvents\":%d}\n"
       (Ring.dropped ()));
  Buffer.contents buf

(* ---------------- Prometheus text exposition ---------------- *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let prometheus () =
  let snap = Metrics.snapshot () in
  let buf = Buffer.create 1024 in
  let header name kind help =
    if help <> "" then
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun (c : Metrics.counter_value) ->
      let name = "cals_" ^ c.Metrics.c_name ^ "_total" in
      header name "counter" c.Metrics.c_help;
      Buffer.add_string buf (Printf.sprintf "%s %d\n" name c.Metrics.c_value))
    snap.Metrics.counters;
  List.iter
    (fun (g : Metrics.gauge_value) ->
      let name = "cals_" ^ g.Metrics.g_name in
      header name "gauge" g.Metrics.g_help;
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n" name (fmt_value g.Metrics.g_value)))
    snap.Metrics.gauges;
  List.iter
    (fun (h : Metrics.histogram_value) ->
      let name = "cals_" ^ h.Metrics.h_name in
      header name "histogram" h.Metrics.h_help;
      let cumulative = ref 0 in
      Array.iteri
        (fun i n ->
          cumulative := !cumulative + n;
          let le =
            if i < Array.length h.Metrics.h_bounds then
              fmt_value h.Metrics.h_bounds.(i)
            else "+Inf"
          in
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name le !cumulative))
        h.Metrics.h_counts;
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n" name (fmt_value h.Metrics.h_sum));
      Buffer.add_string buf
        (Printf.sprintf "%s_count %d\n" name h.Metrics.h_count))
    snap.Metrics.histograms;
  Buffer.contents buf

(* ---------------- ASCII summary ---------------- *)

let summary () =
  let buf = Buffer.create 1024 in
  (match span_stats () with
  | [] -> Buffer.add_string buf "no spans recorded\n"
  | stats ->
    let rows =
      List.map
        (fun s ->
          [
            s.s_name;
            s.s_cat;
            string_of_int s.s_count;
            Tables.fmt_float 3 (s.s_total_us /. 1e3);
            Tables.fmt_float 3 (s.s_mean_us /. 1e3);
            Tables.fmt_float 3 (s.s_max_us /. 1e3);
          ])
        stats
    in
    Buffer.add_string buf
      (Tables.render ~title:"Telemetry: per-stage spans"
         ~header:[ "Span"; "Cat"; "Count"; "Total ms"; "Mean ms"; "Max ms" ]
         [ Tables.Left; Tables.Left; Tables.Right; Tables.Right; Tables.Right;
           Tables.Right ]
         rows));
  let snap = Metrics.snapshot () in
  let counter_rows =
    List.filter_map
      (fun (c : Metrics.counter_value) ->
        if c.Metrics.c_value = 0 then None
        else Some [ c.Metrics.c_name; Tables.fmt_int c.Metrics.c_value ])
      snap.Metrics.counters
  in
  let gauge_rows =
    List.filter_map
      (fun (g : Metrics.gauge_value) ->
        if g.Metrics.g_value = 0.0 then None
        else Some [ g.Metrics.g_name; fmt_value g.Metrics.g_value ])
      snap.Metrics.gauges
  in
  (match counter_rows @ gauge_rows with
  | [] -> ()
  | rows ->
    Buffer.add_string buf
      (Tables.render ~title:"Telemetry: counters and gauges"
         ~header:[ "Metric"; "Value" ]
         [ Tables.Left; Tables.Right ]
         rows));
  Buffer.contents buf
