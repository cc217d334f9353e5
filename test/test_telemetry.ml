(* Tests for the cals_telemetry subsystem: span nesting, per-domain ring
   merging under the worker pool, and the three exporters. The trace JSON
   round-trip uses a small recursive-descent parser (no JSON dependency in
   the tree). *)

module Probe = Cals_telemetry.Probe
module Ring = Cals_telemetry.Ring
module Span = Cals_telemetry.Span
module Metrics = Cals_telemetry.Metrics
module Export = Cals_telemetry.Export
module Pool = Cals_util.Pool

(* Every test owns the global switch and buffers. *)
let fresh () =
  Probe.disable ();
  Ring.clear ();
  Probe.enable ()

let done_ () =
  Probe.disable ();
  Ring.clear ()

(* ------------------------- mini JSON ------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Json_error of string

let json_parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Json_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
          (* Keep the escape verbatim; the exporter only emits \u for
             control characters, which the tests do not round-trip. *)
          Buffer.add_string buf "\\u"
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> raise (Json_error ("missing key " ^ key)))
  | _ -> raise (Json_error "not an object")

let to_list = function
  | Arr l -> l
  | _ -> raise (Json_error "not an array")

let to_string = function
  | Str s -> s
  | _ -> raise (Json_error "not a string")

let to_float = function
  | Num f -> f
  | _ -> raise (Json_error "not a number")

(* ------------------------- span basics ------------------------- *)

let test_span_records_nesting () =
  fresh ();
  Span.with_ ~cat:"t" "outer" (fun () ->
      Span.with_ ~cat:"t" ~meta:"detail" "inner" (fun () -> ());
      Span.with_ ~cat:"t" "inner2" (fun () -> ()));
  let events = Ring.collect () in
  Alcotest.(check int) "three spans" 3 (List.length events);
  let by_name name = List.find (fun e -> e.Ring.name = name) events in
  let outer = by_name "outer" and inner = by_name "inner" in
  Alcotest.(check string) "meta kept" "detail" inner.Ring.meta;
  Alcotest.(check bool) "inner starts inside outer" true
    (inner.Ring.ts_us >= outer.Ring.ts_us);
  Alcotest.(check bool) "inner ends inside outer" true
    (inner.Ring.ts_us +. inner.Ring.dur_us
    <= outer.Ring.ts_us +. outer.Ring.dur_us);
  done_ ()

let test_span_disabled_is_noop () =
  Probe.disable ();
  Ring.clear ();
  Span.with_ "ghost" (fun () -> ());
  let t = Span.enter "ghost2" in
  Span.exit t;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Ring.collect ()));
  done_ ()

let test_span_exception_safe () =
  fresh ();
  (try
     Span.with_ "outer" (fun () ->
         Span.with_ "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let names = List.map (fun e -> e.Ring.name) (Ring.collect ()) in
  Alcotest.(check (list string)) "both closed" [ "inner"; "outer" ]
    (List.sort compare names);
  done_ ()

let test_span_abandoned_frames_dropped () =
  fresh ();
  (* Exit an outer token while an inner span is still open: the inner
     frame must be discarded, not misattributed. *)
  let outer = Span.enter "outer" in
  let _inner = Span.enter "inner" in
  Span.exit outer;
  let names = List.map (fun e -> e.Ring.name) (Ring.collect ()) in
  Alcotest.(check (list string)) "only outer" [ "outer" ] names;
  done_ ()

(* qcheck: arbitrary push/pop sequences produce exactly one event per
   entered span, and same-domain events never strictly partially overlap
   (they are either disjoint or properly nested). *)
let span_nesting_property =
  QCheck.Test.make ~count:100 ~name:"span intervals nest"
    QCheck.(list bool)
    (fun ops ->
      fresh ();
      let stack = ref [] in
      let entered = ref 0 in
      List.iter
        (fun push ->
          if push then begin
            stack := Span.enter (Printf.sprintf "s%d" !entered) :: !stack;
            incr entered
          end
          else
            match !stack with
            | [] -> ()
            | t :: rest ->
              Span.exit t;
              stack := rest)
        ops;
      List.iter Span.exit !stack;
      let events = Array.of_list (Ring.collect ()) in
      let ok = ref (Array.length events = !entered) in
      Array.iter
        (fun (a : Ring.event) ->
          Array.iter
            (fun (b : Ring.event) ->
              (* Strict partial overlap: b starts strictly inside a yet
                 ends after it. Equal start times always nest (one span
                 contains the other whichever is longer), so skip ties. *)
              if a.Ring.tid = b.Ring.tid && a.Ring.ts_us < b.Ring.ts_us then begin
                let a_end = a.Ring.ts_us +. a.Ring.dur_us in
                let b_end = b.Ring.ts_us +. b.Ring.dur_us in
                if b.Ring.ts_us < a_end && b_end > a_end +. 1.0 then ok := false
              end)
            events)
        events;
      done_ ();
      !ok)

(* ------------------------- pool merging ------------------------- *)

let test_pool_spans_merge () =
  fresh ();
  let pool = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let items = Array.init 40 (fun i -> i) in
  let _ =
    Pool.map_array pool
      ~f:(fun _ i ->
        Span.with_ ~cat:"pool" ~meta:(string_of_int i) "pool.item" (fun () ->
            i * i))
      items
  in
  let events =
    List.filter (fun e -> e.Ring.name = "pool.item") (Ring.collect ())
  in
  Alcotest.(check int) "one span per item" 40 (List.length events);
  let metas = List.map (fun e -> e.Ring.meta) events in
  let expected = Array.to_list (Array.init 40 string_of_int) in
  Alcotest.(check (list string)) "every item covered" (List.sort compare expected)
    (List.sort compare metas);
  (* collect is a deterministic merge: same result on a second call. *)
  let again =
    List.filter (fun e -> e.Ring.name = "pool.item") (Ring.collect ())
  in
  Alcotest.(check bool) "deterministic merge" true (events = again);
  (* Merged order is sorted by (ts, tid, seq). *)
  let all = Ring.collect () in
  let sorted =
    List.sort
      (fun a b ->
        compare
          (a.Ring.ts_us, a.Ring.tid, a.Ring.seq)
          (b.Ring.ts_us, b.Ring.tid, b.Ring.seq))
      all
  in
  Alcotest.(check bool) "collect pre-sorted" true (all = sorted);
  done_ ()

(* ------------------------- exporters ------------------------- *)

let test_chrome_trace_round_trip () =
  fresh ();
  Span.with_ ~cat:"flow" ~meta:"K=0.001 \"quoted\" back\\slash" "a" (fun () ->
      Span.with_ ~cat:"map" "b" (fun () ->
          Span.with_ ~cat:"map" "c" (fun () -> ()));
      Span.with_ ~cat:"route" "d" (fun () -> ()));
  let events = Ring.collect () in
  let doc = json_parse (Export.chrome_trace ()) in
  let trace = to_list (member "traceEvents" doc) in
  Alcotest.(check int) "all events exported" (List.length events)
    (List.length trace);
  Alcotest.(check (float 0.0)) "none dropped" 0.0
    (to_float (member "droppedEvents" doc));
  let find name =
    List.find (fun e -> to_string (member "name" e) = name) trace
  in
  List.iter
    (fun e ->
      Alcotest.(check string) "complete event" "X" (to_string (member "ph" e));
      ignore (to_float (member "ts" e));
      ignore (to_float (member "dur" e));
      ignore (to_float (member "tid" e)))
    trace;
  let meta =
    to_string (member "detail" (member "args" (find "a")))
  in
  Alcotest.(check string) "meta escaping round-trips"
    "K=0.001 \"quoted\" back\\slash" meta;
  (* Nesting survives export: [b] lies within [a], [c] within [b]. *)
  let interval name =
    let e = find name in
    let ts = to_float (member "ts" e) in
    (ts, ts +. to_float (member "dur" e))
  in
  let inside (lo1, hi1) (lo2, hi2) = lo1 >= lo2 && hi1 <= hi2 in
  Alcotest.(check bool) "b in a" true (inside (interval "b") (interval "a"));
  Alcotest.(check bool) "c in b" true (inside (interval "c") (interval "b"));
  Alcotest.(check bool) "d in a" true (inside (interval "d") (interval "a"));
  done_ ()

let test_prometheus_format () =
  fresh ();
  let c = Metrics.counter ~help:"test counter" "telemetry_test_hits" in
  let g = Metrics.gauge ~help:"test gauge" "telemetry_test_level" in
  let h =
    Metrics.histogram ~help:"test histogram" ~buckets:[| 1.0; 10.0 |]
      "telemetry_test_sizes"
  in
  Metrics.add c 3;
  Metrics.set g 2.5;
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  Metrics.observe h 50.0;
  let text = Export.prometheus () in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true
    (contains "cals_telemetry_test_hits_total 3");
  Alcotest.(check bool) "gauge line" true (contains "cals_telemetry_test_level 2.5");
  Alcotest.(check bool) "bucket le=1" true
    (contains "cals_telemetry_test_sizes_bucket{le=\"1\"} 1");
  Alcotest.(check bool) "bucket le=+Inf" true
    (contains "cals_telemetry_test_sizes_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "histogram count" true
    (contains "cals_telemetry_test_sizes_count 3");
  done_ ()

let test_metrics_disabled_and_reset () =
  Probe.disable ();
  let c = Metrics.counter "telemetry_test_idle" in
  Metrics.incr c;
  let value () =
    let snap = Metrics.snapshot () in
    (List.find
       (fun v -> v.Metrics.c_name = "telemetry_test_idle")
       snap.Metrics.counters)
      .Metrics.c_value
  in
  Alcotest.(check int) "disabled increment ignored" 0 (value ());
  Probe.enable ();
  Metrics.incr c;
  Metrics.incr c;
  Alcotest.(check int) "enabled increments count" 2 (value ());
  done_ ()

let test_summary_lists_stages () =
  fresh ();
  Span.with_ ~cat:"map" "stage.alpha" (fun () -> ());
  Span.with_ ~cat:"map" "stage.alpha" (fun () -> ());
  Span.with_ ~cat:"route" "stage.beta" (fun () -> ());
  let stats = Export.span_stats () in
  Alcotest.(check int) "two stages" 2 (List.length stats);
  let alpha = List.find (fun s -> s.Export.s_name = "stage.alpha") stats in
  Alcotest.(check int) "alpha count" 2 alpha.Export.s_count;
  let text = Export.summary () in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary names alpha" true (contains "stage.alpha");
  Alcotest.(check bool) "summary names beta" true (contains "stage.beta");
  done_ ()

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "telemetry"
    [
      ( "span",
        [
          Alcotest.test_case "records nesting" `Quick test_span_records_nesting;
          Alcotest.test_case "disabled is no-op" `Quick test_span_disabled_is_noop;
          Alcotest.test_case "exception safe" `Quick test_span_exception_safe;
          Alcotest.test_case "abandoned frames dropped" `Quick
            test_span_abandoned_frames_dropped;
          qc span_nesting_property;
        ] );
      ( "ring",
        [ Alcotest.test_case "pool merge" `Quick test_pool_spans_merge ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace round-trip" `Quick
            test_chrome_trace_round_trip;
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "disabled/reset metrics" `Quick
            test_metrics_disabled_and_reset;
          Alcotest.test_case "summary lists stages" `Quick
            test_summary_lists_stages;
        ] );
    ]
