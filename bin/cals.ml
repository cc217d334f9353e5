(* Command-line front end for the congestion-aware synthesis flow.

   Subcommands:
     stats  - parse a circuit and print network / subject-graph statistics
     map    - technology-map a circuit at a given K, write Verilog
     flow   - run the full Figure-3 loop and report every iteration
     sta    - map, place, route, then print the timing report

   Inputs are BLIF or PLA files, or one of the built-in synthetic
   workloads: spla, pdc, too_large (with --scale). *)

module Network = Cals_logic.Network
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Router = Cals_route.Router
module Congestion = Cals_route.Congestion
module Estimate = Cals_estimate.Estimate
module Grid2d = Cals_util.Grid2d
module Proto = Cals_serve.Proto
module Sta = Cals_sta.Sta
module Mapper = Cals_core.Mapper
module Incremental = Cals_core.Incremental
module Flow = Cals_core.Flow
module Harness = Cals_core.Harness
module Check = Cals_verify.Check
module Fuzz = Cals_verify.Fuzz
module Probe = Cals_telemetry.Probe
module Export = Cals_telemetry.Export
module Ledger = Cals_serve.Ledger
module Scheduler = Cals_serve.Scheduler
module Shard = Cals_serve.Shard

(* Map -v occurrences to a Logs level: 0 warnings, 1 info, 2+ debug. *)
let setup_logs verbosity =
  let level =
    match List.length verbosity with
    | 0 -> Logs.Warning
    | 1 -> Logs.Info
    | _ -> Logs.Debug
  in
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some level)

let library = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry library
let wire = Cals_cell.Library.wire library

(* A missing or malformed circuit file is the user's error, not ours:
   name it and exit 2 instead of escaping as an uncaught exception. *)
let load_network input scale seed =
  match List.assoc_opt input Cals_workload.Presets.named with
  | Some preset -> preset ~scale ~seed
  | None -> (
    match Cals_logic.Blif.load input with
    | Ok network -> network
    | Error reason ->
      Printf.eprintf "cals: %s: %s\n" input reason;
      exit 2)

(* A file the user asked for: an unwritable path is the user's error as
   well, so name it and exit 2. *)
let write_output path contents =
  try Out_channel.with_open_text path (fun oc -> output_string oc contents)
  with Sys_error reason ->
    Printf.eprintf "cals: %s\n" reason;
    exit 2

let prepare input scale seed optimize =
  let network = load_network input scale seed in
  if optimize then Cals_logic.Optimize.script_area network
  else Cals_logic.Optimize.script_light network;
  let subject = Cals_logic.Decompose.subject_of_network network in
  (network, subject)

let floorplan_of subject utilization =
  Floorplan.for_subject ~utilization ~geometry subject

(* ------------------------- stats ------------------------- *)

let run_stats input scale seed optimize =
  let network, subject = prepare input scale seed optimize in
  Printf.printf "network:  %d PIs, %d POs, %d live nodes, %d SOP literals\n"
    (Array.length (Network.pi_names network))
    (Array.length (Network.outputs network))
    (Network.num_live_nodes network)
    (Network.num_literals network);
  Printf.printf "factored: %d literals\n"
    (Cals_logic.Decompose.factored_literals network);
  Printf.printf "subject:  %d base gates (%d NAND2 + %d INV)\n"
    (Subject.num_gates subject) (Subject.num_nand2 subject)
    (Subject.num_inv subject);
  let counts = Subject.fanout_counts subject in
  let maxf = Array.fold_left max 0 counts in
  Printf.printf "max fanout: %d\n" maxf;
  0

(* ------------------------- map ------------------------- *)

let run_map input scale seed optimize k utilization output =
  let _, subject = prepare input scale seed optimize in
  let floorplan = floorplan_of subject utilization in
  let rng = Cals_util.Rng.create (seed + 1) in
  let positions = Placement.place_subject subject ~floorplan ~rng in
  let session = Incremental.create ~subject ~library ~positions () in
  let result = Incremental.map session ~k in
  let mapped = result.Mapper.mapped in
  Printf.printf "mapped at K=%g: %d cells, %.0f um2 (%d matches evaluated)\n" k
    (Mapped.num_cells mapped) (Mapped.total_area mapped)
    result.Mapper.stats.Mapper.matches_evaluated;
  List.iter
    (fun (name, count) -> Printf.printf "  %-8s %d\n" name count)
    (Mapped.cell_histogram mapped);
  (match output with
  | Some path ->
    write_output path (Mapped.to_verilog mapped);
    Printf.printf "wrote %s\n" path
  | None -> ());
  0

(* ------------------------- flow ------------------------- *)

let grid_json g =
  Proto.Arr
    (List.init (Grid2d.rows g) (fun r ->
         Proto.Arr
           (List.init (Grid2d.cols g) (fun c -> Proto.Num (Grid2d.get g c r)))))

(* Both per-gcell maps — the estimator's forecast and the router's real
   congestion — at one K point, for offline inspection, with the cut
   certificate's bound and its worst line, which explain a pruned point.
   The point is re-evaluated from scratch (same companion placement) so
   the dump is complete even when the flow itself pruned or triaged the
   route away. *)
let dump_congestion path ~subject ~floorplan ~positions ~k =
  match
    Flow.evaluate_k ~estimate:Estimate.Off ~subject ~library ~floorplan
      ~positions ~k ()
  with
  | _, (_, None, _) | _, (_, _, None) ->
    Printf.printf
      "dump-congestion: K=%g does not legalize, nothing to dump\n" k
  | _, (mapped, Some placement, Some routing) ->
    let f = Estimate.forecast_mapped mapped ~floorplan ~wire ~placement in
    let real = Congestion.gcell_map routing in
    let m = f.Estimate.maps and cut = f.Estimate.cut in
    let json =
      Proto.Obj
        [
          ("k", Proto.Num k);
          ("cols", Proto.Num (float_of_int m.Estimate.cols));
          ("rows", Proto.Num (float_of_int m.Estimate.rows));
          ("gcell_um", Proto.Num m.Estimate.gcell_um);
          ( "estimated",
            Proto.Obj
              [
                ("verdict", Proto.Str (Estimate.verdict_to_string f.Estimate.verdict));
                ("normalized_overflow", Proto.Num f.Estimate.normalized_overflow);
                ("peak_utilization", Proto.Num f.Estimate.peak_utilization);
                ("overflow_score", Proto.Num f.Estimate.overflow_score);
                ("cut_bound", Proto.Num cut.Router.Cut.bound);
                ( "cut_line",
                  let w = cut.Router.Cut.worst in
                  Proto.Obj
                    [
                      ("axis", Proto.Str (Router.Cut.axis_to_string w.Router.Cut.axis));
                      ("index", Proto.Num (float_of_int w.Router.Cut.index));
                      ("crossings", Proto.Num (float_of_int w.Router.Cut.crossings));
                      ( "floored_capacity",
                        Proto.Num (float_of_int w.Router.Cut.floored_capacity) );
                    ] );
                ("wire_density", grid_json m.Estimate.wire_density);
                ("pin_density", grid_json m.Estimate.pin_density);
                ("supply", grid_json m.Estimate.supply);
                ("utilization", grid_json m.Estimate.utilization);
              ] );
          ( "real",
            Proto.Obj
              [
                ( "violations",
                  Proto.Num (float_of_int routing.Router.violations) );
                ("total_overflow", Proto.Num routing.Router.total_overflow);
                ("max_utilization", Proto.Num routing.Router.max_utilization);
                ("utilization", grid_json real);
              ] );
        ]
    in
    write_output path (Proto.print_json json ^ "\n");
    Printf.printf "wrote %s (estimated + real congestion maps at K=%g)\n" path
      k

(* After a traced run: write the --trace file and print the --metrics
   report. *)
let export_telemetry trace metrics =
  (match trace with
  | Some path ->
    write_output path (Export.chrome_trace ());
    Printf.printf "wrote %s (open in Perfetto or chrome://tracing)\n" path
  | None -> ());
  match metrics with
  | Some ("prometheus" | "prom") -> print_string (Export.prometheus ())
  | Some _ -> print_string (Export.summary ())
  | None -> ()

(* Orchestrated front end: generate candidate pass orderings, score each
   through the adaptive K-loop, report the table and the selected
   outcome. Candidate generation and selection live in
   [Cals_logic.Orchestrate] / [Flow.orchestrate]; this is presentation. *)
let run_orchestrated input scale seed optimize utilization jobs checks timing
    budget route_jobs =
  let network = load_network input scale seed in
  let t = Option.value timing ~default:0.0 in
  Printf.printf "orchestrating the front end: budget %d candidate orderings\n"
    budget;
  if jobs > 1 then
    Printf.printf "evaluating candidates on %d domains\n" jobs;
  match
    Flow.orchestrate ~budget ~optimize ~checks ~jobs ~route_jobs ~t ~network
      ~library
      ~floorplan_of:(fun s -> floorplan_of s utilization)
      ~seed ()
  with
  | exception Check.Violation { stage; detail } ->
    Printf.printf "verification FAILED at stage %s: %s\n" stage detail;
    2
  | result ->
    List.iteri
      (fun idx ev ->
        let accepted =
          match ev.Flow.result with
          | None -> "guarded"
          | Some (o, _) -> (
            match o.Flow.accepted with
            | None -> "no K"
            | Some it ->
              Printf.sprintf "K=%-8g cells=%-5d area=%.1f" it.Flow.k
                it.Flow.cells it.Flow.cell_area)
        in
        Printf.printf "%s%2d %-32s gates=%-5d %s\n"
          (if idx = result.Flow.best_index then ">" else " ")
          idx ev.Flow.cand_label ev.Flow.gates accepted)
      result.Flow.evaluations;
    let best = result.Flow.best in
    Printf.printf
      "selected %s: %d subject gates vs %d baseline (every candidate \
       miter-verified)\n"
      best.Flow.cand_label best.Flow.gates result.Flow.baseline.Flow.gates;
    (match best.Flow.result with
    | Some ({ Flow.accepted = Some it; _ }, _) ->
      Printf.printf "accepted at K=%g\n" it.Flow.k;
      0
    | _ ->
      print_endline "no K in the schedule was acceptable";
      1)

let run_adaptive input scale seed optimize utilization checks timing dump
    route_jobs =
  let _, subject = prepare input scale seed optimize in
  let floorplan = floorplan_of subject utilization in
  let t = Option.value timing ~default:0.0 in
  Printf.printf "die: %s\n" (Floorplan.describe floorplan);
  if t > 0.0 then
    Printf.printf "timing-driven covering: T=%g (cost AREA + K*WIRE + T*DELAY)\n"
      t;
  if checks <> Check.Off then
    Printf.printf "verification checks: %s\n" (Check.level_to_string checks);
  if route_jobs > 1 then
    Printf.printf "routing rip-up waves on %d domains\n" route_jobs;
  (* One companion placement serves the search and the congestion dump. *)
  let rng = Cals_util.Rng.create (seed + 1) in
  let positions = Placement.place_subject subject ~floorplan ~rng in
  let outcome =
    try
      Ok
        (Flow.run_adaptive ~checks ~route_jobs ~t ~positions ~subject ~library
           ~floorplan ~rng ())
    with Check.Violation { stage; detail } -> Error (stage, detail)
  in
  match outcome with
  | Error (stage, detail) ->
    Printf.printf "verification FAILED at stage %s: %s\n" stage detail;
    2
  | Ok (outcome, s) ->
    List.iter
      (fun it ->
        Printf.printf "K=%-8g cells=%-6d util=%5.2f%%  %s%s\n" it.Flow.k
          it.Flow.cells
          (100.0 *. it.Flow.utilization)
          (Congestion.summary it.Flow.report)
          (if it.Flow.estimated then " [estimated]" else ""))
      outcome.Flow.iterations;
    Printf.printf "adaptive: %d real route%s, %d forecast evals%s\n"
      s.Flow.real_routes
      (if s.Flow.real_routes = 1 then "" else "s")
      s.Flow.forecast_evals
      (match s.Flow.frontier_k with
      | Some k -> Printf.sprintf ", frontier K=%g" k
      | None -> ", every point ruled out");
    (match
       (timing, outcome.Flow.mapped, outcome.Flow.placement,
        outcome.Flow.routing)
     with
    | Some _, Some mapped, Some placement, Some routing ->
      let report =
        Sta.analyze ~net_length_um:routing.Router.net_length_um mapped ~wire
          ~placement
      in
      Printf.printf "post-route critical path: %s\n"
        (Sta.endpoint_to_string report.Sta.critical)
    | _ -> ());
    (match dump with
    | Some path ->
      let k =
        match (outcome.Flow.accepted, List.rev outcome.Flow.iterations) with
        | Some it, _ | None, it :: _ -> it.Flow.k
        | None, [] -> 0.0
      in
      dump_congestion path ~subject ~floorplan ~positions ~k
    | None -> ());
    (match outcome.Flow.accepted with
    | Some it ->
      Printf.printf "accepted at K=%g%s\n" it.Flow.k
        (if it.Flow.estimated then " (estimated, not routed)" else "");
      0
    | None ->
      print_endline "no K in the schedule was acceptable";
      1)

let run_flow verbosity input scale seed optimize utilization jobs checks
    timing orchestrate dump route_jobs trace metrics =
  setup_logs verbosity;
  if trace <> None || metrics <> None then Probe.enable ();
  let code =
    match orchestrate with
    | Some budget ->
      run_orchestrated input scale seed optimize utilization jobs checks
        timing budget route_jobs
    | None ->
      run_adaptive input scale seed optimize utilization checks timing dump
        route_jobs
  in
  export_telemetry trace metrics;
  code

(* ------------------------- sta ------------------------- *)

let run_sta input scale seed optimize k utilization =
  let _, subject = prepare input scale seed optimize in
  let floorplan = floorplan_of subject utilization in
  let rng = Cals_util.Rng.create (seed + 1) in
  let positions = Placement.place_subject subject ~floorplan ~rng in
  match
    Flow.evaluate_k ~estimate:Estimate.Off ~subject ~library ~floorplan
      ~positions ~k ()
  with
  | _, (_, None, _) | _, (_, _, None) ->
    Printf.printf
      "K=%g: the mapped netlist does not legalize into the floorplan\n" k;
    1
  | _, (mapped, Some placement, Some routing) ->
    Printf.printf "%s\n" (Congestion.summary (Congestion.of_result routing));
    let report =
      Sta.analyze ~net_length_um:routing.Router.net_length_um mapped ~wire
        ~placement
    in
    Printf.printf "critical path: %s\n"
      (Sta.endpoint_to_string report.Sta.critical);
    List.iter
      (fun (label, t) -> Printf.printf "  %-20s %8.3f ns\n" label t)
      report.Sta.critical_path;
    0

(* ------------------------- fuzz ------------------------- *)

let run_fuzz verbosity iterations seed out replay level =
  setup_logs verbosity;
  let check p = Harness.check_params ~level p in
  match replay with
  | Some path ->
    let p = Fuzz.read_reproducer path in
    Printf.printf "replaying %s: %s\n" path (Fuzz.params_to_string p);
    (match check p with
    | Ok () ->
      print_endline "replay passed (the bug no longer reproduces)";
      0
    | Error (stage, detail) ->
      Printf.printf "replay FAILED at stage %s: %s\n" stage detail;
      1)
  | None ->
    let outcome = Fuzz.run ~iterations ~seed ~reproducer_path:out ~check () in
    (match outcome.Fuzz.failure with
    | None ->
      Printf.printf "fuzz: %d workloads passed (checks %s)\n"
        outcome.Fuzz.iterations
        (Check.level_to_string level);
      0
    | Some f ->
      Printf.printf "fuzz: FAILED at stage %s after %d workloads\n"
        f.Fuzz.stage outcome.Fuzz.iterations;
      Printf.printf "  %s\n" f.Fuzz.detail;
      Printf.printf "  shrunk (%d steps) to: %s\n" f.Fuzz.shrink_steps
        (Fuzz.params_to_string f.Fuzz.params);
      Printf.printf "  reproducer written to %s (replay with: cals fuzz \
                     --replay %s)\n"
        out out;
      1)

(* ------------------------- serve ------------------------- *)

let run_serve verbosity spool from_stdin out deadline max_attempts
    backoff high_watermark overload_watermark triage_watermark
    degraded_k_points watch tick trace metrics listen workers cache_dir
    worker_mode =
  setup_logs verbosity;
  if trace <> None || metrics <> None then Probe.enable ();
  let fail msg =
    prerr_endline ("serve: " ^ msg);
    2
  in
  let listen_addr =
    match listen with
    | None -> Ok None
    | Some s -> (
      match Cals_util.Netaddr.parse s with
      | Ok a -> Ok (Some a)
      | Error e -> Error (Printf.sprintf "bad --listen address %S: %s" s e))
  in
  let cache_ok =
    match cache_dir with
    | None -> Ok ()
    | Some d -> (
      match Cals_util.Fsutil.writable_dir d with
      | Ok () -> Ok ()
      | Error e -> Error (Printf.sprintf "unusable --cache-dir %S: %s" d e))
  in
  let spool_ok =
    match spool with
    | Some d when not (Sys.file_exists d && Sys.is_directory d) ->
      Error (Printf.sprintf "--spool %S is not a directory" d)
    | _ -> Ok ()
  in
  match (listen_addr, cache_ok, spool_ok) with
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg -> fail msg
  | Ok listen_addr, Ok (), Ok () ->
    let config =
      {
        Scheduler.jobs = 1;
        out_dir = out;
        default_deadline_s = deadline;
        max_attempts;
        backoff_s = backoff;
        high_watermark;
        overload_watermark;
        triage_watermark;
        degraded_k_points;
        watch;
        tick_s = tick;
        cache_dir;
      }
    in
    if worker_mode then begin
      (* Stdout is the fleet protocol channel; format_reporter already
         keeps Info/Debug/Error on stderr. *)
      Shard.worker_main config;
      0
    end
    else if workers = 0 && listen_addr <> None then
      fail "--listen needs a worker fleet; pass --workers N (N >= 1)"
    else if workers > 0 && watch then
      fail "--watch needs the in-process drain; a --workers fleet reads its \
            spool once"
    else if spool = None && (not from_stdin) && listen_addr = None then
      fail
        "nothing to do — give a job source (--spool DIR, --stdin or --listen \
         ADDR)"
    else begin
      let ledger, drain =
        if workers = 0 then
          let scheduler = Scheduler.create config in
          (Scheduler.ledger scheduler, fun () -> Scheduler.drain scheduler ?spool ())
        else
          let worker_argv =
            Array.of_list
              ([ Sys.executable_name; "serve"; "--worker"; "--out"; out ]
              @ (match cache_dir with
                | Some d -> [ "--cache-dir"; d ]
                | None -> [])
              @ (match deadline with
                | Some s -> [ "--deadline"; Printf.sprintf "%g" s ]
                | None -> [])
              @ [
                  "--max-attempts";
                  string_of_int max_attempts;
                  "--degraded-k-points";
                  string_of_int degraded_k_points;
                ]
              @ List.concat_map (fun _ -> [ "-v" ]) verbosity)
          in
          let shard =
            Shard.create
              {
                Shard.default_config with
                workers;
                worker_argv;
                out_dir = out;
                listen = listen_addr;
                max_attempts;
                backoff_s = backoff;
                high_watermark;
                overload_watermark;
                triage_watermark;
                tick_s = tick;
              }
          in
          (Shard.ledger shard, fun () -> Shard.drain shard ?spool ())
      in
      if from_stdin then begin
        try
          while true do
            ignore (Ledger.submit_line ledger ~source:"stdin" (input_line stdin))
          done
        with End_of_file -> ()
      end;
      let s = drain () in
      Printf.printf
        "serve: %d submitted, %d completed, %d quarantined, %d retries, %d \
         timeouts, %d shed, %d worker restarts, %d parse errors in %.2fs\n"
        s.Ledger.submitted s.completed s.quarantined s.retries s.timeouts
        s.shed s.restarts s.parse_errors s.wall_s;
      export_telemetry trace metrics;
      if s.quarantined = 0 && s.parse_errors = 0 && s.shed = 0 then 0 else 1
    end

(* ------------------------- lib ------------------------- *)

let run_lib output =
  match output with
  | Some path ->
    write_output path (Cals_cell.Liberty.print library);
    Printf.printf "wrote %s (%d cells)\n" path (Cals_cell.Library.size library);
    0
  | None ->
    print_string (Cals_cell.Liberty.print library);
    0

(* ------------------------- cmdliner ------------------------- *)

open Cmdliner

let input_pos =
  let doc = "Input: a .blif or .pla file, or one of spla, pdc, too_large." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"INPUT" ~doc)

let preset_arg =
  let doc =
    "Use the built-in synthetic workload $(docv) as input (one of spla, pdc, \
     too_large). Equivalent to passing the name as INPUT."
  in
  Arg.(
    value
    & opt
        (some
           (enum (List.map (fun (name, _) -> (name, name)) Cals_workload.Presets.named)))
        None
    & info [ "preset" ] ~docv:"NAME" ~doc)

(* One input source: either the positional INPUT or --preset. *)
let input_arg =
  let combine input preset =
    match (input, preset) with
    | None, Some p | Some p, None -> `Ok p
    | Some i, Some p when String.equal i p -> `Ok p
    | Some _, Some _ -> `Error (true, "give either INPUT or --preset, not both")
    | None, None ->
      `Error (true, "an input is required: positional INPUT or --preset")
  in
  Term.(ret (const combine $ input_pos $ preset_arg))

let scale_arg =
  let doc = "Scale factor for the synthetic workloads." in
  Arg.(value & opt float Cals_workload.Presets.default_scale & info [ "scale" ] ~doc)

let seed_arg =
  let doc = "Random seed for synthetic workloads and placement." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let optimize_arg =
  let doc = "Run the aggressive (SIS-style) optimization script first." in
  Arg.(value & flag & info [ "optimize" ] ~doc)

let k_arg =
  let doc = "Congestion minimization factor K (Eq. 5 of the paper)." in
  Arg.(value & opt float 0.0 & info [ "k" ] ~doc)

let utilization_conv =
  let parse s =
    match float_of_string_opt s with
    | Some u when u > 0.0 && u <= 1.0 -> Ok u
    | _ -> Error (`Msg (Printf.sprintf "expected a number in (0, 1], got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let utilization_arg =
  let doc =
    "Target core utilization used to derive the floorplan, in (0, 1]."
  in
  Arg.(value & opt utilization_conv 0.55 & info [ "utilization" ] ~doc)

let jobs_arg =
  let doc =
    "Evaluate the $(b,--orchestrate) candidates on $(docv) OCaml domains \
     (1 = sequential). The result is identical to the sequential run."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let output_arg =
  let doc = "Write the mapped netlist as structural Verilog." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)

let check_level_conv =
  let parse s =
    match Check.level_of_string s with
    | Ok l -> Ok l
    | Error e -> Error (`Msg e)
  in
  let print fmt l = Format.pp_print_string fmt (Check.level_to_string l) in
  Arg.conv (parse, print)

let check_arg =
  let doc =
    "Run the verification layer alongside the flow: $(b,cheap) checks \
     structural invariants (cover, placement, routing) at every K and \
     spot-checks the accepted netlist for equivalence; $(b,full) also \
     re-derives routing usage and checks every K point's netlist. \
     $(b,--check) alone means $(b,full)."
  in
  Arg.(
    value
    & opt ~vopt:Check.Full check_level_conv Check.Off
    & info [ "check" ] ~docv:"LEVEL" ~doc)

let timing_arg =
  let doc =
    "Timing-driven covering: weight the match cost with $(docv) times the \
     estimated arrival (cost AREA + K*WIRE + T*DELAY). $(b,--timing) \
     without a value uses the fitted default weight; the post-route \
     critical path of the accepted K is reported. Off (T=0, the exact \
     Eq. 5 cost) when absent."
  in
  Arg.(
    value
    & opt ~vopt:(Some Mapper.default_timing_weight) (some float) None
    & info [ "timing" ] ~docv:"T" ~doc)

let dump_congestion_arg =
  let doc =
    "Write the estimated and real per-gcell congestion maps at the \
     accepted (or last evaluated) K point to $(docv) as JSON, with the \
     cut certificate's bound and its worst cut line."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-congestion" ] ~docv:"FILE" ~doc)

let route_jobs_arg =
  let doc =
    "Worker domains for the router's rip-up waves: segments with disjoint \
     search boxes maze-route concurrently inside one negotiation \
     iteration. Ignored when $(b,--orchestrate) runs candidates on \
     $(b,--jobs) > 1 domains (pools cannot nest); the result is identical \
     for every value."
  in
  Arg.(value & opt int 1 & info [ "route-jobs" ] ~docv:"N" ~doc)

let orchestrate_arg =
  let doc =
    "Explore tech-independent pass orderings before mapping: the legacy \
     pipeline plus $(docv) AIG pass sequences (strash, rewrite, balance, \
     dce, cse, constprop), each miter-verified and scored through the \
     adaptive K loop; the best mapped result wins, with the baseline \
     winning exact ties. Repeated runs are bit-identical. Without a value, \
     $(docv) defaults to the curated schedule."
  in
  Arg.(
    value
    & opt ~vopt:(Some Cals_logic.Orchestrate.default_budget) (some int) None
    & info [ "orchestrate" ] ~docv:"BUDGET" ~doc)

let trace_arg =
  let doc =
    "Record spans for the whole run and write a Chrome trace_event JSON file \
     to $(docv) (open in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)

let metrics_arg =
  let doc =
    "Print collected metrics after the run: $(b,summary) for per-stage ASCII \
     tables (the default when no format is given), $(b,prometheus) for the \
     Prometheus text exposition format."
  in
  Arg.(
    value
    & opt ~vopt:(Some "summary") (some string) None
    & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let verbosity_arg =
  let doc = "Increase log verbosity ($(b,-v): info, $(b,-vv): debug)." in
  Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)

let stats_cmd =
  let doc = "print circuit statistics" in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run_stats $ input_arg $ scale_arg $ seed_arg $ optimize_arg)

let map_cmd =
  let doc = "technology-map a circuit at a given K" in
  Cmd.v (Cmd.info "map" ~doc)
    Term.(
      const run_map $ input_arg $ scale_arg $ seed_arg $ optimize_arg $ k_arg
      $ utilization_arg $ output_arg)

let flow_cmd =
  let doc = "run the congestion-aware synthesis loop (Figure 3)" in
  Cmd.v (Cmd.info "flow" ~doc)
    Term.(
      const run_flow $ verbosity_arg $ input_arg $ scale_arg $ seed_arg
      $ optimize_arg $ utilization_arg $ jobs_arg $ check_arg $ timing_arg
      $ orchestrate_arg $ dump_congestion_arg $ route_jobs_arg $ trace_arg
      $ metrics_arg)

let fuzz_iterations_arg =
  let doc = "Number of random workloads to check." in
  Arg.(value & opt int 25 & info [ "iterations" ] ~doc)

let fuzz_seed_arg =
  let doc = "Seed for the fuzzer's parameter sampler." in
  Arg.(value & opt int 0 & info [ "seed" ] ~doc)

let fuzz_out_arg =
  let doc = "Where to write the shrunk reproducer on failure." in
  Arg.(
    value
    & opt string "fuzz_reproducer.txt"
    & info [ "o"; "out" ] ~docv:"PATH" ~doc)

let fuzz_replay_arg =
  let doc = "Replay the reproducer file $(docv) instead of fuzzing." in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"PATH" ~doc)

let fuzz_level_arg =
  let doc = "Check level the flow runs under (cheap or full)." in
  Arg.(value & opt check_level_conv Check.Full & info [ "level" ] ~doc)

let fuzz_cmd =
  let doc = "fuzz the whole flow with verification checks on" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Samples random synthetic workloads, pushes each through optimize, \
         decompose, map, place and route with the verification layer \
         enabled, and stops at the first violated invariant or lost \
         equivalence. The failing workload's parameters are greedily shrunk \
         toward the smallest circuit that still fails and written to a \
         reproducer file that $(b,--replay) accepts.";
    ]
  in
  Cmd.v (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const run_fuzz $ verbosity_arg $ fuzz_iterations_arg $ fuzz_seed_arg
      $ fuzz_out_arg $ fuzz_replay_arg $ fuzz_level_arg)

let serve_spool_arg =
  let doc =
    "Ingest job files ($(b,*.json), one JSON job per line) from $(docv), \
     deleting each file once read."
  in
  Arg.(value & opt (some string) None & info [ "spool" ] ~docv:"DIR" ~doc)

let serve_stdin_arg =
  let doc = "Read JSON-lines jobs from standard input until EOF." in
  Arg.(value & flag & info [ "stdin" ] ~doc)

let serve_out_arg =
  let doc =
    "Artifact root: one directory per job (job.json, metrics.json, \
     mapped.v), plus $(b,quarantine/) and $(b,summary.json)."
  in
  Arg.(value & opt string "cals-serve-out" & info [ "out" ] ~docv:"DIR" ~doc)

let serve_deadline_arg =
  let doc =
    "Default per-job deadline in seconds (jobs may override with their own \
     $(b,deadline_s) field). Unset means unlimited."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S" ~doc)

let serve_attempts_arg =
  let doc = "Runs per job before it is quarantined." in
  Arg.(value & opt int 3 & info [ "max-attempts" ] ~docv:"N" ~doc)

let serve_backoff_arg =
  let doc = "First retry delay in seconds (doubles per failure)." in
  Arg.(value & opt float 0.05 & info [ "backoff" ] ~docv:"S" ~doc)

let serve_high_arg =
  let doc = "Queue depth at which $(b,full) checks degrade to $(b,cheap)." in
  Arg.(value & opt int 8 & info [ "high-watermark" ] ~docv:"N" ~doc)

let serve_overload_arg =
  let doc =
    "Queue depth at which checks turn off and K schedules are capped."
  in
  Arg.(value & opt int 16 & info [ "overload-watermark" ] ~docv:"N" ~doc)

let serve_triage_arg =
  let doc =
    "Queue depth past which jobs run estimator-only: no K point pays a \
     negotiated route, congestion forecasts decide acceptance, and job \
     metrics carry $(b,estimated: true)."
  in
  Arg.(value & opt int 32 & info [ "triage-watermark" ] ~docv:"N" ~doc)

let serve_degraded_k_arg =
  let doc = "Maximum K-schedule points per job under overload." in
  Arg.(value & opt int 6 & info [ "degraded-k-points" ] ~docv:"N" ~doc)

let serve_watch_arg =
  let doc =
    "Keep polling the spool after the queue drains (daemon mode) instead of \
     exiting. In-process drain only; refused with $(b,--workers)."
  in
  Arg.(value & flag & info [ "watch" ] ~doc)

let serve_tick_arg =
  let doc = "Idle sleep / spool poll interval in seconds." in
  Arg.(value & opt float 0.1 & info [ "tick" ] ~docv:"S" ~doc)

let serve_listen_arg =
  let doc =
    "Accept job submissions over a socket — $(b,unix:PATH) or \
     $(b,[HOST]:PORT). Clients send one JSON job spec per line (answered \
     with its assigned id) and $(b,{\"op\":\"drain\"}) to finish the batch \
     and receive the summary. Requires $(b,--workers)."
  in
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)

let serve_workers_arg =
  let doc =
    "Shard jobs over $(docv) supervised worker processes instead of \
     running in-process: jobs hash by design onto workers, a crashed \
     worker is restarted and its in-flight job retried, and per-worker \
     queues shed their oldest job past the watermark. 0 disables the \
     fleet."
  in
  Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N" ~doc)

let serve_cache_dir_arg =
  let doc =
    "Persist warmed match caches under $(docv), keyed by design \
     fingerprint, and warm new scheduler (or worker) processes from them \
     — a restarted service pays for pattern matching only once per \
     design, ever."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let serve_worker_arg =
  let doc =
    "Internal: run as a fleet worker — serve one job request per stdin \
     line, reply on stdout. Spawned by $(b,--workers); not for direct \
     use."
  in
  Arg.(value & flag & info [ "worker" ] ~doc)

let serve_cmd =
  let doc = "run the batch mapping service (spool or stdin jobs)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Accepts mapping jobs as JSON lines — one object per line, either \
         from $(b,--spool) files or $(b,--stdin) — and drains them one at \
         a time, or in parallel over a $(b,--workers) process fleet. Each \
         job names its circuit (a $(b,blif) path, a $(b,preset), or a \
         synthetic $(b,workload)) plus \
         optional $(b,k_schedule), $(b,checks), $(b,utilization), \
         $(b,optimize) and $(b,deadline_s) fields.";
      `P
        "Jobs that crash, time out, or fail verification are retried with \
         exponential backoff and then quarantined under \
         $(b,OUT/quarantine/) with a respoolable job.json — and, for \
         workload jobs, a reproducer that $(b,cals fuzz --replay) accepts. \
         Under queue pressure the service degrades gracefully: full checks \
         shed to cheap at the high watermark; past the overload watermark \
         checks turn off and K schedules are capped; past the triage \
         watermark jobs run estimator-only (no negotiated routes, results \
         marked estimated).";
      `P
        "Repeated designs share one warmed incremental mapping session, so \
         a batch of jobs over the same circuit pays for decomposition, \
         placement and pattern matching once (see the per-job \
         metrics.json cache hit rate).";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run_serve $ verbosity_arg $ serve_spool_arg $ serve_stdin_arg
      $ serve_out_arg $ serve_deadline_arg
      $ serve_attempts_arg $ serve_backoff_arg $ serve_high_arg
      $ serve_overload_arg $ serve_triage_arg $ serve_degraded_k_arg
      $ serve_watch_arg $ serve_tick_arg $ trace_arg $ metrics_arg
      $ serve_listen_arg $ serve_workers_arg $ serve_cache_dir_arg
      $ serve_worker_arg)

let sta_cmd =
  let doc = "map, place, route and report static timing" in
  Cmd.v (Cmd.info "sta" ~doc)
    Term.(
      const run_sta $ input_arg $ scale_arg $ seed_arg $ optimize_arg $ k_arg
      $ utilization_arg)

let lib_cmd =
  let doc = "dump the synthetic cell library in Liberty format" in
  Cmd.v (Cmd.info "lib" ~doc) Term.(const run_lib $ output_arg)

let main_cmd =
  let doc = "congestion-aware logic synthesis (DATE 2002 reproduction)" in
  Cmd.group (Cmd.info "cals" ~doc)
    [ stats_cmd; map_cmd; flow_cmd; sta_cmd; lib_cmd; fuzz_cmd; serve_cmd ]

let () = exit (Cmd.eval' main_cmd)
