(* End-to-end smoke of every cals subcommand on a tiny golden BLIF:
   asserts exit codes and the artifacts each command promises. Runs the
   real binary (built as a test dependency), so this is the one suite
   that exercises argument parsing, file IO and exit-code wiring. *)

let cals = Filename.concat ".." "bin/cals.exe"
let blif = Filename.concat "golden" "pla_small_06.blif"
let log_file = "cli-smoke.log"

(* Run through the shell so redirections work; on an unexpected exit code
   surface the command's own output in the failure message. *)
let run cmd =
  Sys.command (Printf.sprintf "%s > %s 2>&1" cmd log_file)

let slurp path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let logged () = if Sys.file_exists log_file then slurp log_file else ""

let check_exit name expected cmd =
  let code = run cmd in
  if code <> expected then
    Alcotest.failf "%s: exit %d (wanted %d)\n--- output ---\n%s" name code
      expected (logged ())

let check_file name path =
  Alcotest.(check bool) (name ^ ": " ^ path ^ " exists") true
    (Sys.file_exists path)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------- subcommands ------------------------- *)

let test_stats () =
  check_exit "stats" 0 (Printf.sprintf "%s stats %s" cals blif);
  Alcotest.(check bool) "prints the subject size" true
    (contains ~needle:"subject:" (logged ()))

let test_map () =
  check_exit "map" 0
    (Printf.sprintf "%s map %s -k 0.001 -o cli-mapped.v" cals blif);
  check_file "map" "cli-mapped.v";
  Alcotest.(check bool) "structural Verilog" true
    (contains ~needle:"module" (slurp "cli-mapped.v"))

let test_flow () =
  check_exit "flow accepted" 0
    (Printf.sprintf "%s flow %s --check cheap" cals blif);
  Alcotest.(check bool) "reports the accepted K" true
    (contains ~needle:"accepted at K=" (logged ()));
  (* A preset works as input too, and the trace artifact lands with a
     span for every pipeline stage. *)
  check_exit "flow preset" 0
    (Printf.sprintf
       "%s flow --preset spla --scale 0.02 --seed 5 --trace cli-trace.json"
       cals);
  check_file "flow" "cli-trace.json";
  let trace = slurp "cli-trace.json" in
  List.iter
    (fun span ->
      Alcotest.(check bool) ("trace has span " ^ span) true
        (contains ~needle:(Printf.sprintf "\"name\":\"%s\"" span) trace))
    [ "workload.generate"; "logic.decompose"; "mapper.map"; "place.legalize";
      "route.route_pins" ]

(* Orchestrated flow: candidate table, miter-verified selection, and
   bit-identical output across two runs (the determinism contract the
   orchestrator documents). *)
let test_flow_orchestrate () =
  check_exit "flow --orchestrate" 0
    (Printf.sprintf "%s flow %s --orchestrate" cals blif);
  let first = logged () in
  Alcotest.(check bool) "prints the candidate table" true
    (contains ~needle:"baseline" first
    && contains ~needle:"aig:strash" first
    && contains ~needle:"selected" first
    && contains ~needle:"miter-verified" first);
  check_exit "flow --orchestrate again" 0
    (Printf.sprintf "%s flow %s --orchestrate" cals blif);
  Alcotest.(check bool) "two runs bit-identical" true
    (String.equal first (logged ()));
  (* An explicit budget works, and a nonsensical one is a usage error. *)
  check_exit "flow --orchestrate=3" 0
    (Printf.sprintf "%s flow %s --orchestrate=3" cals blif)

let test_sta () =
  check_exit "sta" 0 (Printf.sprintf "%s sta %s" cals blif);
  Alcotest.(check bool) "prints a critical path" true
    (contains ~needle:"critical path:" (logged ()))

(* A netlist that does not legalize is reported in one line naming K,
   exit 1, not an uncaught exception. *)
let test_sta_overflow () =
  check_exit "sta, no fit" 1
    (Printf.sprintf "%s sta spla --scale 0.03 --utilization 0.95 -k 1.0" cals);
  Alcotest.(check bool) "names K and the failure" true
    (contains ~needle:"K=1: the mapped netlist does not legalize" (logged ()))

let test_lib () =
  check_exit "lib" 0 (Printf.sprintf "%s lib -o cli-lib.lib" cals);
  check_file "lib" "cli-lib.lib"

let test_fuzz () =
  check_exit "fuzz" 0 (Printf.sprintf "%s fuzz --iterations 1 --seed 1" cals);
  (* Replay path: write a known-good reproducer and replay it. *)
  Cals_verify.Fuzz.write_reproducer ~path:"cli-repro.txt"
    {
      Cals_verify.Fuzz.params =
        {
          Cals_verify.Fuzz.seed = 3;
          family = Cals_verify.Fuzz.Pla;
          inputs = 6;
          outputs = 3;
          size = 12;
        };
      stage = "none";
      detail = "smoke";
      shrink_steps = 0;
    };
  check_exit "fuzz --replay" 0
    (Printf.sprintf "%s fuzz --replay cli-repro.txt" cals)

let test_serve () =
  (* One-shot spool drain: two jobs, one of them respooling the golden
     BLIF through the service. *)
  let spool = "cli-spool" in
  (try Unix.mkdir spool 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out (Filename.concat spool "jobs.json") in
  output_string oc
    (Printf.sprintf
       "{\"id\":\"cli-blif\",\"blif\":\"%s\",\"k_schedule\":[0,0.001]}\n\
        {\"id\":\"cli-wl\",\"workload\":{\"family\":\"pla\",\"seed\":3,\"inputs\":6,\"outputs\":3,\"size\":12},\"checks\":\"cheap\"}\n"
       blif);
  close_out oc;
  check_exit "serve drain" 0
    (Printf.sprintf "%s serve --spool %s --out cli-serve-out -j 2" cals spool);
  Alcotest.(check bool) "prints the drain summary" true
    (contains ~needle:"2 submitted, 2 completed" (logged ()));
  List.iter (check_file "serve")
    [
      "cli-serve-out/cli-blif/metrics.json";
      "cli-serve-out/cli-blif/mapped.v";
      "cli-serve-out/cli-wl/metrics.json";
      "cli-serve-out/summary.json";
    ];
  (* No job source is a usage error. *)
  check_exit "serve without a source" 2 (Printf.sprintf "%s serve" cals)

(* The fleet flags: a 2-worker sharded drain with a persistent cache
   dir works end to end twice (the second run restart-warm), and every
   bad-flag path is a clean usage error, exit 2. *)
let test_serve_fleet () =
  let spool () =
    let dir = "cli-fleet-spool" in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let oc = open_out (Filename.concat dir "jobs.json") in
    output_string oc
      ("{\"id\":\"fleet-1\",\"workload\":{\"family\":\"pla\",\"seed\":3,\"inputs\":6,\"outputs\":3,\"size\":12},\"k_schedule\":[0,0.001]}\n\
        {\"id\":\"fleet-2\",\"workload\":{\"family\":\"pla\",\"seed\":4,\"inputs\":6,\"outputs\":3,\"size\":12},\"k_schedule\":[0,0.001]}\n");
    close_out oc;
    dir
  in
  check_exit "fleet drain" 0
    (Printf.sprintf "%s serve --spool %s --out cli-fleet-out --workers 2 --cache-dir cli-fleet-cache"
       cals (spool ()));
  Alcotest.(check bool) "prints the fleet summary" true
    (contains ~needle:"2 submitted, 2 completed" (logged ())
    && contains ~needle:"worker restarts" (logged ()));
  List.iter (check_file "fleet")
    [
      "cli-fleet-out/fleet-1/mapped.v";
      "cli-fleet-out/fleet-2/mapped.v";
      "cli-fleet-out/summary.json";
    ];
  Alcotest.(check bool) "cache dir populated" true
    (Array.length (Sys.readdir "cli-fleet-cache") > 0);
  (* Restart: the same drain again warms from the cache dir. *)
  check_exit "fleet drain, warm" 0
    (Printf.sprintf "%s serve --spool %s --out cli-fleet-warm --workers 2 --cache-dir cli-fleet-cache"
       cals (spool ()));
  check_file "fleet warm" "cli-fleet-warm/fleet-1/metrics.json";
  (* Error paths are usage errors, before any worker is spawned. *)
  check_exit "bad --listen address" 2
    (Printf.sprintf "%s serve --spool cli-fleet-spool --workers 2 --listen bad:addr:99x"
       cals);
  Alcotest.(check bool) "says which address is bad" true
    (contains ~needle:"bad --listen" (logged ()));
  let oc = open_out "cli-fleet-notadir" in
  close_out oc;
  check_exit "unwritable --cache-dir" 2
    (Printf.sprintf "%s serve --spool cli-fleet-spool --cache-dir cli-fleet-notadir/sub"
       cals);
  Alcotest.(check bool) "says which dir is unusable" true
    (contains ~needle:"unusable --cache-dir" (logged ()));
  check_exit "--listen without --workers" 2
    (Printf.sprintf "%s serve --listen unix:cli-fleet.sock" cals);
  (* Flags the fleet cannot honour are refused, not silently dropped. *)
  check_exit "--watch with --workers" 2
    (Printf.sprintf "%s serve --spool cli-fleet-spool --workers 2 --watch" cals);
  Alcotest.(check bool) "says --watch is refused" true
    (contains ~needle:"--watch" (logged ()));
  check_exit "-j 2 with --workers" 2
    (Printf.sprintf "%s serve --spool cli-fleet-spool --workers 2 -j 2" cals);
  Alcotest.(check bool) "says -j is refused" true
    (contains ~needle:"-j/--jobs" (logged ()))

(* A missing or malformed circuit file is a clean error, exit 2, naming
   the file — for every subcommand that reads one. *)
let test_bad_input () =
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  write "cli-bad.blif" "11 1\n.model x\n";
  write "cli-bad.pla" ".i 2\n.o 1\nzz 1\n.e\n";
  write "cli-bad-header.pla" ".i x\n.o 1\n.e\n";
  List.iter
    (fun (cmd, input, reason) ->
      check_exit (cmd ^ " " ^ input) 2
        (Printf.sprintf "%s %s %s" cals cmd input);
      Alcotest.(check bool)
        (cmd ^ " " ^ input ^ ": names the input and the reason")
        true
        (contains ~needle:(Printf.sprintf "cals: %s: %s" input reason) (logged ()));
      Alcotest.(check bool) (cmd ^ " " ^ input ^ ": no uncaught exception") false
        (contains ~needle:"uncaught exception" (logged ())))
    [
      ("stats", "cli-missing.blif", "No such file");
      ("map", "cli-missing.pla", "No such file");
      ("stats", "cli-bad.blif", "line 1");
      ("flow", "cli-bad.blif", "line 1");
      ("sta", "cli-bad.pla", "line 3");
      ("map", "cli-bad.pla", "line 3");
      ("flow", "cli-bad-header.pla", "line 1");
    ]

let test_bad_usage () =
  let code = run (Printf.sprintf "%s no-such-subcommand" cals) in
  Alcotest.(check bool) "unknown subcommand fails" true (code <> 0);
  let code = run (Printf.sprintf "%s flow" cals) in
  Alcotest.(check bool) "flow without input fails" true (code <> 0);
  (* An out-of-range utilization is cmdliner's usage error (exit 124),
     not an uncaught exception from the floorplanner. *)
  List.iter
    (fun u ->
      check_exit ("flow --utilization " ^ u) 124
        (Printf.sprintf "%s flow %s --utilization %s" cals blif u);
      Alcotest.(check bool) "names the bad value" true
        (contains ~needle:"(0, 1]" (logged ())))
    [ "0"; "1.5"; "nan" ]

let () =
  Alcotest.run "cli"
    [
      ( "smoke",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "flow" `Quick test_flow;
          Alcotest.test_case "flow-orchestrate" `Quick test_flow_orchestrate;
          Alcotest.test_case "sta" `Quick test_sta;
          Alcotest.test_case "sta-overflow" `Quick test_sta_overflow;
          Alcotest.test_case "lib" `Quick test_lib;
          Alcotest.test_case "fuzz" `Quick test_fuzz;
          Alcotest.test_case "serve" `Quick test_serve;
          Alcotest.test_case "serve-fleet" `Quick test_serve_fleet;
          Alcotest.test_case "bad-usage" `Quick test_bad_usage;
          Alcotest.test_case "bad-input" `Quick test_bad_input;
        ] );
    ]
