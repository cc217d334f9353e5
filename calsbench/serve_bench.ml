(* The [serve] workload: a batch of jobs drained through a two-worker
   Cals_serve.Shard fleet whose workers warm their designs from a shared
   cache_dir store. Workers are this executable started with [--worker].

   Every job is checked twice: its artifact's netlist is parsed back and
   miter-checked against the job's source network, and the job is
   recomputed in-process (Flow.run_adaptive on the design the scheduler
   builds) so its accepted K, area and Verilog must match the fleet's.
   That in-process reference also supplies the QoR the artifacts do not
   carry (routed wirelength, and the critical path of untimed jobs) and,
   in a traced run, the per-layer spans. *)

module Proto = Cals_serve.Proto
module Shard = Cals_serve.Shard
module Scheduler = Cals_serve.Scheduler
module Fuzz = Cals_verify.Fuzz
module Flow = Flow_bench.Flow
module Incremental = Flow_bench.Incremental
module Equiv = Flow_bench.Equiv
module Sta = Flow_bench.Sta
module Router = Flow_bench.Router

let now = Unix.gettimeofday
let span = Layer.span

(* ------------------------------------------------------------------ *)
(* Jobs                                                                 *)

type design = { key_label : string; input : Proto.input; utilization : float }

(* The presets are fixed circuits; the fuzz design is drawn from the
   workload seed, so the seed reaches the circuits served as well. *)
let designs ~tiny ~seed =
  let s = if tiny then 0.03 else 0.1 in
  let preset name scale seed = Proto.Preset { name; scale; seed } in
  [
    { key_label = "spla"; input = preset "spla" s 1; utilization = 0.5 };
    { key_label = "pdc"; input = preset "pdc" s 1; utilization = 0.5 };
    { key_label = "too_large"; input = preset "too_large" s 1; utilization = 0.5 };
    {
      key_label = "fuzz";
      input =
        Proto.Workload
          {
            Fuzz.seed = seed;
            family = Fuzz.Multilevel;
            inputs = 24;
            outputs = 16;
            size = (if tiny then 60 else 400);
          };
      utilization = 0.5;
    };
  ]

let heavy ~tiny =
  {
    key_label = "pdc-heavy";
    input = Proto.Preset { name = "pdc"; scale = (if tiny then 0.05 else 0.25); seed = 1 };
    utilization = 0.4;
  }

(* The timing weight of timed jobs: the mapper's fitted default. *)
let timing_t = Cals_core.Mapper.default_timing_weight

let spec ~id ~timing d =
  {
    Proto.id;
    input = d.input;
    k_schedule = None;
    checks = Cals_verify.Check.Off;
    utilization = d.utilization;
    optimize = false;
    timing = (if timing then Some timing_t else None);
    orchestrate = None;
    deadline_s = None;
  }

(* [per_design] jobs per design, half of them timed, submitted round-robin
   over the designs after one heavy job. The seed picks which of each
   design's jobs are timed; the submission order is fixed, because a
   batch's median latency follows where in the queue the expensive jobs
   sit. *)
let jobs ~tiny ~seed =
  let per_design = if tiny then 2 else 8 in
  let rng = Cals_util.Rng.create seed in
  let timed =
    List.map
      (fun d ->
        let t = Array.init per_design (fun i -> i < per_design / 2) in
        Cals_util.Rng.shuffle rng t;
        (d, t))
      (designs ~tiny ~seed)
  in
  let round i = List.map (fun (d, t) -> (d, t.(i))) timed in
  ((heavy ~tiny, false) :: List.concat (List.init per_design round))
  |> List.mapi (fun i (d, timing) ->
         (d, spec ~id:(Printf.sprintf "job-%02d-%s" i d.key_label) ~timing d))

(* ------------------------------------------------------------------ *)
(* Fleet                                                                *)

let worker_config ~out ~cache_dir =
  {
    Scheduler.default_config with
    Scheduler.jobs = 1;
    out_dir = out;
    cache_dir = Some cache_dir;
  }

(* Entry point of a worker process. Its peak RSS is left next to the
   artifacts so the benchmark process can report the fleet's largest. *)
let worker_main ~out ~cache_dir =
  Shard.worker_main (worker_config ~out ~cache_dir);
  Cals_util.Fsutil.write_file
    (Filename.concat out (Printf.sprintf "worker-rss-%d.txt" (Unix.getpid ())))
    (Printf.sprintf "%.6f\n" (Rss.peak_mb ()))

let fleet ~out ~cache_dir =
  (* Watermarks above any batch size here: no job is degraded or shed. *)
  let big = 1_000_000 in
  Shard.create
    {
      Shard.default_config with
      Shard.workers = 2;
      worker_argv =
        [| Sys.executable_name; "--worker"; "--out"; out; "--cache-dir"; cache_dir |];
      out_dir = out;
      max_attempts = 1;
      queue_watermark = 0;
      high_watermark = big;
      overload_watermark = big;
      triage_watermark = big;
    }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* ------------------------------------------------------------------ *)
(* Reading artifacts                                                    *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let json_of_file path =
  match Proto.parse_json (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let rec path json = function
  | [] -> Some json
  | key :: rest -> Option.bind (Proto.member key json) (fun j -> path j rest)

let path_num json keys =
  match path json keys with Some (Proto.Num f) -> Some f | _ -> None

type artifact = {
  latency_s : float;  (** Submit to the artifact's last file. *)
  run_s : float;  (** The worker's own [wall_s] for the job. *)
  metrics : Proto.json;
  verilog : string;
}

let read_artifact ~out ~submitted_at id =
  let dir = Filename.concat out id in
  let v = Filename.concat dir "mapped.v" in
  if not (Sys.file_exists v) then Error (id ^ ": no mapped.v artifact")
  else
    let metrics = json_of_file (Filename.concat dir "metrics.json") in
    match path_num metrics [ "wall_s" ] with
    | None -> Error (id ^ ": metrics.json has no wall_s")
    | Some run_s ->
      Ok
        {
          latency_s = (Unix.stat v).Unix.st_mtime -. submitted_at;
          run_s;
          metrics;
          verilog = read_file v;
        }

let worker_rss ~out =
  Sys.readdir out |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"worker-rss-" f)
  |> List.map (fun f -> float_of_string (String.trim (read_file (Filename.concat out f))))
  |> List.fold_left max 0.0

(* ------------------------------------------------------------------ *)
(* In-process reference                                                 *)

let network_of_input = function
  | Proto.Preset { name; scale; seed } -> (
    match name with
    | "spla" -> Cals_workload.Presets.spla_like ~scale ~seed ()
    | "pdc" -> Cals_workload.Presets.pdc_like ~scale ~seed ()
    | _ -> Cals_workload.Presets.too_large_like ~scale ~seed ())
  | Proto.Workload p ->
    let family =
      match p.Fuzz.family with Fuzz.Pla -> `Pla | Fuzz.Multilevel -> `Multilevel
    in
    Cals_workload.Gen.of_fuzz ~family ~seed:p.Fuzz.seed ~inputs:p.Fuzz.inputs
      ~outputs:p.Fuzz.outputs ~size:p.Fuzz.size
  | Proto.Blif _ -> invalid_arg "the serve workload generates its circuits"

(* The scheduler places a design with the circuit's own seed. *)
let placement_seed = function
  | Proto.Preset { seed; _ } -> seed
  | Proto.Workload p -> p.Fuzz.seed
  | Proto.Blif _ -> 1

(* One design as the scheduler builds it, searched at every timing weight
   its jobs use. *)
type reference = {
  source : Cals_logic.Network.t;  (** Unoptimized, for the miter. *)
  built : Flow_bench.built;
  searches : (float * (Flow.outcome * Flow.adaptive_stats) * Flow_bench.gated) list;
}

let timing_of (spec : Proto.spec) = Option.value spec.Proto.timing ~default:0.0

(* [traced] records the set-up and gate spans; the searches stay
   untraced, as in the fleet. *)
let reference ~traced d ~ts =
  Layer.enabled := traced;
  let built =
    Flow_bench.build
      ~network:(fun () -> span "workload.generate" (fun () -> network_of_input d.input))
      ~utilization:d.utilization
      ~place_seed:(placement_seed d.input + 1)
  in
  let searches =
    List.map
      (fun t ->
        Layer.enabled := false;
        let r = Flow_bench.search ~t built in
        Layer.enabled := traced;
        let g =
          Flow_bench.gate ~t ~subject:built.Flow_bench.subject
            (Lazy.from_val built) (fst r)
        in
        (t, r, g))
      ts
  in
  Layer.enabled := false;
  { source = network_of_input d.input; built; searches }

let references ~traced jobs =
  List.sort_uniq compare (List.map (fun (d, _) -> d.key_label) jobs)
  |> List.map (fun label ->
         let mine = List.filter (fun (d, _) -> d.key_label = label) jobs in
         let ts = List.sort_uniq compare (List.map (fun (_, s) -> timing_of s) mine) in
         (label, reference ~traced (fst (List.hd mine)) ~ts))

(* Names as Mapped.to_verilog writes them. *)
let verilog_name =
  String.map (fun c -> if c = '[' || c = ']' || c = '.' || c = '-' then '_' else c)

(* The artifact against the source network and the in-process search. *)
let check_job refs (d, (spec : Proto.spec)) (a : artifact) =
  let r = List.assoc d.key_label refs in
  let t = timing_of spec in
  let _, (outcome, _), g =
    List.find (fun (t', _, _) -> t' = t) r.searches
  in
  let printed x = Proto.print_json (Proto.Num x) in
  let same_num keys x =
    match path_num a.metrics keys with
    | Some v -> printed v = printed x
    | None -> false
  in
  let errors = ref [] in
  let expect ok what = if not ok then errors := (spec.Proto.id ^ ": " ^ what) :: !errors in
  expect (same_num [ "attempts" ] 1.0) "ran more than once";
  expect (same_num [ "degradation"; "level" ] 0.0) "was degraded";
  expect (path a.metrics [ "estimated" ] = Some (Proto.Bool false)) "was estimated";
  expect (same_num [ "violations" ] 0.0) "accepted K has routing violations";
  (match (outcome.Flow.accepted, g.Flow_bench.mapped, g.Flow_bench.qor) with
  | Some it, Some mapped, Some q ->
    expect (same_num [ "accepted_k" ] it.Flow.k) "accepted K differs from the in-process search";
    expect (same_num [ "cell_area" ] it.Flow.cell_area) "area differs from the in-process search";
    expect (a.verilog = Cals_netlist.Mapped.to_verilog mapped)
      "netlist differs from the in-process search";
    if spec.Proto.timing <> None then
      expect (same_num [ "timing"; "critical_path_ns" ] q.Flow_bench.crit_path_ns)
        "critical path differs from the in-process search"
  | _ -> expect false "the in-process search accepts no K");
  expect (g.Flow_bench.errors = []) (String.concat "; " g.Flow_bench.errors);
  (match Verilog_in.read ~library:Flow_bench.library a.verilog with
  | exception Failure e -> expect false ("mapped.v does not parse: " ^ e)
  | parsed ->
    let src = Equiv.of_network r.source in
    let src =
      {
        src with
        Equiv.pi_names = Array.map verilog_name src.Equiv.pi_names;
        output_names = Array.map verilog_name src.Equiv.output_names;
      }
    in
    match
      span "verify.equiv" (fun () ->
          Equiv.check ~rng:(Cals_util.Rng.create 1) src (Equiv.of_mapped parsed))
    with
    | Ok () -> ()
    | Error cex -> expect false ("miter: " ^ Equiv.counterexample_to_string cex)
    | exception Invalid_argument e -> expect false ("miter: " ^ e));
  List.rev !errors

let qor_of refs (d, spec) =
  let r = List.assoc d.key_label refs in
  let _, _, g = List.find (fun (t', _, _) -> t' = timing_of spec) r.searches in
  g.Flow_bench.qor

(* ------------------------------------------------------------------ *)
(* Drains                                                               *)

type drain = {
  setup_s : float;  (** Filling the store, fleet start-up included. *)
  flow_s : float;  (** First submit to the end of the drain. *)
  summary : Shard.summary;
  artifacts : (string * (artifact, string) result) list;
  worker_rss_mb : float;
}

(* Set-up: a fleet drains one job per design into an empty store. Then a
   fresh fleet drains the whole batch warm from that store. *)
let drain ~dir ~designs jobs =
  let store = Filename.concat dir "store" in
  let fill_out = Filename.concat dir "fill" and out = Filename.concat dir "out" in
  Cals_util.Fsutil.mkdir_p store;
  let fill, setup_s =
    Report.time (fun () ->
        let shard = fleet ~out:fill_out ~cache_dir:store in
        List.iteri
          (fun i d ->
            ignore
              (Shard.submit shard
                 (spec ~id:(Printf.sprintf "fill-%d" i) ~timing:false d)))
          designs;
        Shard.drain shard ())
  in
  if fill.Shard.completed <> List.length designs then
    failwith "the store-filling drain did not complete every design";
  let shard = fleet ~out ~cache_dir:store in
  let t0 = now () in
  let submitted =
    List.map (fun (_, spec) -> (Shard.submit shard spec, now ())) jobs
  in
  let summary = Shard.drain shard () in
  let flow_s = now () -. t0 in
  let artifacts =
    List.map
      (fun (id, at) -> (id, read_artifact ~out ~submitted_at:at id))
      submitted
  in
  {
    setup_s;
    flow_s;
    summary;
    artifacts;
    worker_rss_mb = max (worker_rss ~out) (worker_rss ~out:fill_out);
  }

let check_drain report refs jobs (d : drain) =
  List.iter2
    (fun job (_, art) ->
      Report.operation report
        (match art with
        | Error e -> [ e ]
        | Ok a -> check_job refs job a))
    jobs d.artifacts;
  if d.summary.Shard.shed > 0 || d.summary.Shard.quarantined > 0 then
    Report.fault report
      [ Printf.sprintf "%d jobs shed, %d quarantined" d.summary.Shard.shed
          d.summary.Shard.quarantined ]

let artifacts (d : drain) =
  List.filter_map
    (fun (_, a) -> match a with Ok a -> Some a | Error _ -> None)
    d.artifacts

let run report ~tiny ~seed ~seconds ~trace =
  let jobs = jobs ~tiny ~seed in
  let designs = designs ~tiny ~seed @ [ heavy ~tiny ] in
  let parent = Filename.concat "calsbench" "_work" in
  let work = Filename.concat parent (string_of_int (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () ->
      rm_rf work;
      try Unix.rmdir parent with Unix.Unix_error _ -> ())
  @@ fun () ->
  let rep_dir i = Filename.concat work (Printf.sprintf "rep%d" i) in
  if not trace then begin
    let refs = references ~traced:false jobs in
    (* Only the numbers of a drain are kept, so this process's memory does
       not grow with the number of drains that fit in the run. *)
    let drains = ref [] in
    Report.repeat ~seconds ~min_reps:3 (fun i ->
        let d = drain ~dir:(rep_dir i) ~designs jobs in
        rm_rf (rep_dir i);
        check_drain report refs jobs d;
        let latencies = List.map (fun a -> a.latency_s) (artifacts d) in
        drains := (d.setup_s, d.flow_s, latencies, d.worker_rss_mb) :: !drains);
    let drains = !drains in
    let best f = Report.best (List.map f drains) in
    Report.set report "setup_s"
      (Report.median (List.map (fun (s, _, _, _) -> s) drains));
    Report.set report "flow_s" (best (fun (_, f, _, _) -> f));
    Report.set report "job_p50_s" (best (fun (_, _, l, _) -> Report.median l));
    Report.set report "job_tail_s" (best (fun (_, _, l, _) -> fst (Report.tail l)));
    let _, _, l, _ = List.hd drains in
    Printf.printf
      "job times: best of %d drains of %d jobs, tail = p%.0f of a drain\n"
      (List.length drains) (List.length l) (snd (Report.tail l));
    Report.set report "peak_rss_mb"
      (List.fold_left (fun m (_, _, _, r) -> max m r) (Rss.peak_mb ()) drains);
    let qors = List.filter_map (qor_of refs) jobs in
    Workloads.qor_metrics report qors
  end
  else begin
    let d = drain ~dir:(rep_dir 0) ~designs jobs in
    rm_rf (rep_dir 0);
    let refs = references ~traced:true jobs in
    Layer.enabled := true;
    check_drain report refs jobs d;
    Layer.enabled := false;
    let arts = artifacts d in
    Report.set report "serve.queue_wait_p50_s"
      (Report.median (List.map (fun a -> a.latency_s -. a.run_s) arts));
    Report.set report "serve.job_run_p50_s"
      (Report.median (List.map (fun a -> a.run_s) arts));
    let sum keys =
      List.fold_left
        (fun acc a -> acc +. Option.value (path_num a.metrics keys) ~default:0.0)
        0.0 arts
    in
    let hits = sum [ "cache"; "hits" ] and misses = sum [ "cache"; "misses" ] in
    Report.set report "serve.cache_hit_rate"
      (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
    (* Every job reports its design's preload; count each design once. *)
    let preloaded = Hashtbl.create 8 in
    List.iter
      (fun a ->
        match (Proto.member "design_key" a.metrics, path_num a.metrics [ "cache"; "store_preloaded" ]) with
        | Some (Proto.Str key), Some n -> Hashtbl.replace preloaded key n
        | _ -> ())
      arts;
    Report.set report "serve.store_preloaded"
      (Hashtbl.fold (fun _ n acc -> acc +. n) preloaded 0.0);
    Report.seti report "serve.retries" d.summary.Shard.retries;
    Report.seti report "serve.shed" d.summary.Shard.shed;
    let searches =
      List.concat_map
        (fun (label, r) ->
          List.map (fun (t, (o, s), _) -> (label, r.built, t, o, s)) r.searches)
        refs
    in
    let counts, coverage, overhead =
      Workloads.traced_replay (fun () ->
          let counts = Flow_bench.new_counts () in
          List.iter
            (fun (label, b, t, (o : Flow.outcome), _) ->
              Flow_bench.replay counts ~label ~t b o.Flow.iterations)
            searches;
          counts)
    in
    let qors = List.filter_map (qor_of refs) jobs in
    Workloads.trace_report report ~counts ~coverage ~overhead
      ~stats:(List.map (fun (_, _, _, _, s) -> s) searches)
      ~sessions:(List.map (fun (_, r) -> r.built.Flow_bench.session) refs)
      ~gates:
        (List.fold_left
           (fun a (_, r) ->
             a + Flow_bench.Subject.num_gates r.built.Flow_bench.subject)
           0 refs)
      ~violations:
        (Report.mean
           (List.map (fun q -> float_of_int q.Flow_bench.violations) qors))
  end
