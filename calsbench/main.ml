(* The benchmark command. One run generates a workload's inputs from the
   seed, runs the workload through the libraries' public functions for
   about [--seconds], checks every output, and prints its metrics as one
   JSON object on the last line of standard output:

     main.exe --workload congested|orchestrate|serve --seed N
              --seconds S --trace 0|1 [--tiny]

   With --trace 0 the metrics are the end-to-end ones, measured with
   tracing off; with --trace 1 they are the per-layer ones, from a traced
   replay of the same work. --tiny shrinks every workload for the
   self-test. The exit code is 0 only when every output passed its gate.

   [main.exe --worker --out DIR --cache-dir DIR] is a serve fleet worker;
   the serve workload starts two. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("flow_s", "s");
    ("job_p50_s", "s");
    ("job_tail_s", "s");
    ("peak_rss_mb", "MB");
    ("k_rank", "index");
    ("area_um2", "um2");
    ("wirelength_um", "um");
    ("crit_path_ns", "ns");
  ]

let per_layer =
  [
    ("logic.decompose_s", "s");
    ("logic.optimize_s", "s");
    ("logic.prepare_s", "s");
    ("logic.subject_gates", "count");
    ("logic.alloc_mb", "MB");
    ("place.companion_s", "s");
    ("place.legalize_s", "s");
    ("place.legalize_calls", "count");
    ("core.session_s", "s");
    ("core.map_s", "s");
    ("core.map_calls", "count");
    ("core.match_hit_rate", "ratio");
    ("core.real_routes", "count");
    ("core.forecast_evals", "count");
    ("core.alloc_mb", "MB");
    ("estimate.forecast_s", "s");
    ("estimate.calls", "count");
    ("estimate.skip_ratio", "ratio");
    ("estimate.agree_ratio", "ratio");
    ("route.route_s", "s");
    ("route.calls", "count");
    ("route.s_per_call", "s");
    ("route.replay_rate", "ratio");
    ("route.nets_rerouted", "count");
    ("route.alloc_mb", "MB");
    ("route.violations", "count");
    ("sta.analyze_s", "s");
    ("verify.equiv_s", "s");
    ("verify.failed_frac", "ratio");
    ("serve.queue_wait_p50_s", "s");
    ("serve.job_run_p50_s", "s");
    ("serve.cache_hit_rate", "ratio");
    ("serve.store_preloaded", "count");
    ("serve.retries", "count");
    ("serve.shed", "count");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ratio");
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload congested|orchestrate|serve --seed N \
     --seconds S --trace 0|1 [--tiny]";
  exit 2

let json_string s = "\"" ^ String.escaped s ^ "\""

(* The result line: every metric of the run's kind, by name and unit. *)
let print_result (report : Report.t) ~trace =
  let names = if trace then per_layer else end_to_end in
  Hashtbl.iter
    (fun name _ ->
      if not (List.mem_assoc name names) then
        failwith ("metric outside the benchmark's list: " ^ name))
    report.Report.values;
  let metric (name, unit) =
    match Hashtbl.find_opt report.Report.values name with
    | Some v when Float.is_finite v ->
      Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name) v
        (json_string unit)
    | Some v -> failwith (Printf.sprintf "metric %s is not finite (%g)" name v)
    | None -> failwith ("metric not measured: " ^ name)
  in
  let correct = report.Report.failed = 0 && report.Report.errors = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct report.Report.attempted report.Report.failed
    (String.concat ", " (List.map metric names));
  correct

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec get key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> get key rest
    | [] -> None
  in
  if List.mem "--worker" args then begin
    match (get "--out" args, get "--cache-dir" args) with
    | Some out, Some cache_dir -> Serve_bench.worker_main ~out ~cache_dir
    | _ -> usage ()
  end
  else begin
    let int_arg key =
      match Option.bind (get key args) int_of_string_opt with
      | Some n -> n
      | None -> usage ()
    in
    let workload = Option.value (get "--workload" args) ~default:"" in
    let seed = int_arg "--seed" and seconds = int_arg "--seconds" in
    let trace =
      match int_arg "--trace" with 0 -> false | 1 -> true | _ -> usage ()
    in
    let tiny = List.mem "--tiny" args in
    let seconds = float_of_int seconds in
    let run =
      match workload with
      | "congested" -> Workloads.congested
      | "orchestrate" -> Workloads.orchestrate
      | "serve" -> Serve_bench.run
      | _ -> usage ()
    in
    let report = Report.create () in
    run report ~tiny ~seed ~seconds ~trace;
    List.iter (fun e -> prerr_endline ("FAILED: " ^ e)) report.Report.errors;
    if not (print_result report ~trace) then exit 1
  end
