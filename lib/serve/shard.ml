module Fnv = Cals_util.Tables.Fnv64
module Lines = Cals_util.Lines
module Netaddr = Cals_util.Netaddr
module Metrics = Cals_telemetry.Metrics

let log_src = Logs.Src.create "cals.shard" ~doc:"Serve fleet front-end"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_dispatched =
  Metrics.counter ~help:"Jobs dispatched to fleet workers"
    "serve_shard_dispatched"

let m_requeued =
  Metrics.counter ~help:"In-flight or faulted jobs re-queued by the front-end"
    "serve_shard_requeued"

let m_alive =
  Metrics.gauge ~help:"Live worker processes" "serve_shard_workers_alive"

type config = {
  workers : int;
  worker_argv : string array;
  out_dir : string;
  listen : Netaddr.t option;
  max_attempts : int;
  backoff_s : float;
  queue_watermark : int;
  restart_limit : int;
  high_watermark : int;
  overload_watermark : int;
  triage_watermark : int;
  tick_s : float;
}

let default_config =
  {
    workers = 2;
    worker_argv = [||];
    out_dir = "cals-serve-out";
    listen = None;
    max_attempts = 3;
    backoff_s = 0.05;
    queue_watermark = 64;
    restart_limit = 2;
    high_watermark = 8;
    overload_watermark = 16;
    triage_watermark = 32;
    tick_s = 0.1;
  }

type summary = Ledger.summary = {
  submitted : int;
  completed : int;
  quarantined : int;
  retries : int;
  timeouts : int;
  parse_errors : int;
  shed : int;
  restarts : int;
  wall_s : float;
}

type worker = {
  index : int;
  queue : Queue.t;
  mutable pid : int;
  mutable send : Unix.file_descr;
  mutable recv : Unix.file_descr;
  mutable lines : Lines.t;
  mutable inflight : Job.t option;
  mutable restarts : int;
  mutable alive : bool;  (* Process running right now (false pre-spawn). *)
  mutable abandoned : bool;  (* Restart budget spent; never routed to. *)
}

type client = {
  cfd : Unix.file_descr;
  clines : Lines.t;
  mutable want_summary : bool;
}

type t = {
  config : config;
  workers : worker array;
  ledger : Ledger.t;
  mutable clients : client list;
  mutable draining : bool;
  mutable shutting_down : bool;
}

(* Rendezvous (highest-random-weight) hashing over the non-abandoned
   workers: stable per key, minimal movement when a worker is abandoned.
   Routing deliberately ignores [alive] — jobs may be submitted before
   {!drain} spawns anyone, and a worker that just died but still has
   restart budget keeps its keys. *)
let route workers key =
  let best = ref None in
  Array.iter
    (fun w ->
      if not w.abandoned then begin
        let h = Fnv.string (Fnv.int Fnv.empty w.index) key in
        match !best with
        | Some (bh, _) when Int64.unsigned_compare bh h >= 0 -> ()
        | _ -> best := Some (h, w)
      end)
    workers;
  Option.map snd !best

(* Admission: route the job to its worker's queue, shedding that queue's
   oldest waiter first when it is at the watermark. *)
let enqueue (config : config) workers ledger (job : Job.t) =
  match route workers (Proto.design_key job.Job.spec) with
  | None -> Ledger.quarantine ledger job (Job.Crashed "no live workers")
  | Some w ->
    (if config.queue_watermark > 0 && Queue.depth w.queue >= config.queue_watermark
     then
       match Queue.shed_oldest w.queue with
       | Some victim ->
         Ledger.shed ledger victim
           (Job.Crashed
              (Printf.sprintf "shed: worker %d queue over watermark %d" w.index
                 config.queue_watermark))
       | None -> ());
    Queue.push w.queue job

let create (config : config) =
  if config.workers < 1 then invalid_arg "Shard.create: workers must be >= 1";
  if Array.length config.worker_argv = 0 then
    invalid_arg "Shard.create: worker_argv must name the worker command";
  let workers =
    Array.init config.workers (fun index ->
          {
            index;
            queue =
              Queue.create ~max_attempts:config.max_attempts
                ~backoff_s:config.backoff_s ();
            pid = -1;
            send = Unix.stdin;
            recv = Unix.stdin;
            lines = Lines.create ();
            inflight = None;
            restarts = 0;
            alive = false;
            abandoned = false;
          })
  in
  {
    config;
    workers;
    ledger =
      Ledger.create ~out_dir:config.out_dir ~fleet:true
        ~high_watermark:config.high_watermark
        ~overload_watermark:config.overload_watermark
        ~triage_watermark:config.triage_watermark
        ~enqueue:(enqueue config workers);
    clients = [];
    draining = false;
    shutting_down = false;
  }

let ledger t = t.ledger
let submit t spec = Ledger.submit t.ledger spec

(* ------------------------- protocol ------------------------- *)

let fault_to_json = function
  | Job.Timed_out d ->
    Proto.Obj [ ("kind", Proto.Str "timeout"); ("deadline_s", Proto.Num d) ]
  | Job.Violation { stage; detail } ->
    Proto.Obj
      [
        ("kind", Proto.Str "violation");
        ("stage", Proto.Str stage);
        ("detail", Proto.Str detail);
      ]
  | Job.Crashed detail ->
    Proto.Obj [ ("kind", Proto.Str "crash"); ("detail", Proto.Str detail) ]

let fault_of_json json =
  let str name =
    match Proto.member name json with Some (Proto.Str s) -> s | _ -> ""
  in
  match str "kind" with
  | "timeout" ->
    let d =
      match Proto.member "deadline_s" json with
      | Some (Proto.Num d) -> d
      | _ -> 0.0
    in
    Job.Timed_out d
  | "violation" -> Job.Violation { stage = str "stage"; detail = str "detail" }
  | _ -> Job.Crashed (str "detail")

let request_line ~attempts ~level (spec : Proto.spec) =
  Proto.print_json
    (Proto.Obj
       [
         ("op", Proto.Str "run");
         ("attempts", Proto.Num (float_of_int attempts));
         ("level", Proto.Num (float_of_int level));
         ("job", Proto.spec_to_json spec);
       ])
  ^ "\n"

(* ------------------------- worker side ------------------------- *)

let chaos_armed () = Sys.getenv_opt "CALS_SHARD_CHAOS" = Some "1"
let chaos_prefix = "chaos-kill"

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let worker_main (config : Scheduler.config) =
  let scheduler = Scheduler.create { config with Scheduler.jobs = 1 } in
  let respond json =
    print_string (Proto.print_json json);
    print_newline ();
    flush Stdlib.stdout
  in
  let run_request json =
    let num name default =
      match Proto.member name json with
      | Some (Proto.Num n) -> int_of_float n
      | _ -> default
    in
    let attempts = max 1 (num "attempts" 1) in
    let level = num "level" 0 in
    match
      match Proto.member "job" json with
      | Some job -> Proto.spec_of_json ~default_id:"" job
      | None -> Error "missing job"
    with
    | Error err ->
      respond
        (Proto.Obj
           [
             ("id", Proto.Str "");
             ("ok", Proto.Bool false);
             ("fault", fault_to_json (Job.Crashed ("bad request: " ^ err)));
           ])
    | Ok spec ->
      (* Deterministic crash injection for the fault battery: die
         mid-job, after the request is consumed but before any reply,
         exactly like a segfaulting worker would. Only first attempts
         die, so the front-end's retry lands and completes. *)
      if
        chaos_armed () && attempts = 1
        && starts_with ~prefix:chaos_prefix spec.Proto.id
      then begin
        Log.warn (fun m -> m "chaos: killing worker on %s" spec.Proto.id);
        exit 66
      end;
      let job = Job.create ~now:(Unix.gettimeofday ()) spec in
      job.Job.attempts <- attempts - 1;
      let reply =
        match Scheduler.run_job scheduler ~level job with
        | Scheduler.Success m ->
          Proto.Obj
            [
              ("id", Proto.Str spec.Proto.id);
              ("ok", Proto.Bool true);
              ("wall_s", Proto.Num m.Scheduler.wall_s);
            ]
        | Scheduler.Fault fault ->
          Proto.Obj
            [
              ("id", Proto.Str spec.Proto.id);
              ("ok", Proto.Bool false);
              ("fault", fault_to_json fault);
            ]
      in
      respond reply
  in
  let rec loop () =
    match input_line Stdlib.stdin with
    | exception End_of_file -> ()
    | line ->
      (match Proto.parse_json line with
      | Ok json -> run_request json
      | Error err ->
        respond
          (Proto.Obj
             [
               ("id", Proto.Str "");
               ("ok", Proto.Bool false);
               ("fault", fault_to_json (Job.Crashed ("bad request: " ^ err)));
             ]));
      loop ()
  in
  loop ()

(* ------------------------- supervision ------------------------- *)

let spawn t w =
  (* Both pipes are cloexec: the child's ends are dup2-ed onto fds 0/1
     by [create_process] (which clears the flag on the copies), and the
     parent's ends never leak into sibling workers — otherwise a dead
     worker's pipe would stay open in its siblings and EOF would never
     arrive. *)
  let child_in, send = Unix.pipe ~cloexec:true () in
  let recv, child_out = Unix.pipe ~cloexec:true () in
  let argv = t.config.worker_argv in
  let pid = Unix.create_process argv.(0) argv child_in child_out Unix.stderr in
  Unix.close child_in;
  Unix.close child_out;
  w.pid <- pid;
  w.send <- send;
  w.recv <- recv;
  w.lines <- Lines.create ();
  w.inflight <- None;
  w.alive <- true;
  Log.info (fun m -> m "worker %d spawned (pid %d)" w.index pid)

let alive_count t =
  Array.fold_left (fun n w -> if w.alive then n + 1 else n) 0 t.workers

let total_depth t =
  Array.fold_left (fun n w -> n + Queue.depth w.queue) 0 t.workers

(* A worker abandoned past its restart budget leaves its queue behind:
   re-route every queued job over the survivors (rendezvous again, so
   only the dead worker's keys move), or quarantine when the fleet is
   gone entirely. *)
let reroute_queue t w =
  let rec go () =
    match Queue.shed_oldest w.queue with
    | None -> ()
    | Some job ->
      Metrics.incr m_requeued;
      (match route t.workers (Proto.design_key job.Job.spec) with
      | Some survivor -> Queue.push survivor.queue job
      | None -> Ledger.quarantine t.ledger job (Job.Crashed "no live workers"));
      go ()
  in
  go ()

let apply_fault t w job fault =
  match Ledger.fault t.ledger w.queue job fault with
  | `Retry -> Metrics.incr m_requeued
  | `Quarantine -> ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let worker_died t w =
  close_quiet w.send;
  close_quiet w.recv;
  let status =
    match Unix.waitpid [] w.pid with
    | _, Unix.WEXITED c -> Printf.sprintf "exit %d" c
    | _, Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
    | _, Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
    | exception Unix.Unix_error _ -> "unknown"
  in
  w.alive <- false;
  Metrics.set m_alive (float_of_int (alive_count t));
  (match w.inflight with
  | Some job ->
    w.inflight <- None;
    apply_fault t w job
      (Job.Crashed (Printf.sprintf "worker %d died (%s) mid-job" w.index status))
  | None -> ());
  if not t.shutting_down then begin
    Log.warn (fun m -> m "worker %d died (%s)" w.index status);
    if w.restarts < t.config.restart_limit then begin
      w.restarts <- w.restarts + 1;
      Ledger.restarted t.ledger;
      spawn t w;
      Metrics.set m_alive (float_of_int (alive_count t))
    end
    else begin
      Log.err (fun m ->
          m "worker %d abandoned after %d restarts; re-routing its queue"
            w.index w.restarts);
      w.abandoned <- true;
      reroute_queue t w
    end
  end

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* ------------------------- the select loop ------------------------- *)

let dispatch t =
  let now = Unix.gettimeofday () in
  let level = Ledger.level t.ledger ~depth:(total_depth t) in
  Array.iter
    (fun w ->
      if w.alive && w.inflight = None then
        match Queue.take_ready w.queue ~now ~max:1 with
        | [ job ] -> (
          job.Job.attempts <- job.Job.attempts + 1;
          w.inflight <- Some job;
          Metrics.incr m_dispatched;
          let line =
            request_line ~attempts:job.Job.attempts ~level job.Job.spec
          in
          try write_all w.send line
          with Unix.Unix_error _ -> worker_died t w)
        | _ -> ())
    t.workers

let handle_response t w line =
  match Proto.parse_json line with
  | Error err ->
    Log.err (fun m -> m "worker %d spoke garbage (%s): %s" w.index err line)
  | Ok json -> (
    let id =
      match Proto.member "id" json with Some (Proto.Str s) -> s | _ -> ""
    in
    let ok =
      match Proto.member "ok" json with Some (Proto.Bool b) -> b | _ -> false
    in
    match w.inflight with
    | Some job when job.Job.spec.Proto.id = id ->
      w.inflight <- None;
      if ok then begin
        let wall_s =
          match Proto.member "wall_s" json with
          | Some (Proto.Num s) -> s
          | _ -> 0.0
        in
        Ledger.complete t.ledger job ~wall_s;
        Log.info (fun m -> m "%s done on worker %d" id w.index)
      end
      else
        let fault =
          match Proto.member "fault" json with
          | Some fj -> fault_of_json fj
          | None -> Job.Crashed "worker reported failure without a fault"
        in
        apply_fault t w job fault
    | _ ->
      Log.err (fun m ->
          m "worker %d answered for %S with no such job in flight" w.index id))

let scratch = Bytes.create 65536

let handle_worker t w =
  match Unix.read w.recv scratch 0 (Bytes.length scratch) with
  | 0 -> worker_died t w
  | n -> List.iter (handle_response t w) (Lines.feed w.lines scratch n)
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    worker_died t w

let drop_client t c =
  close_quiet c.cfd;
  t.clients <- List.filter (fun c' -> c' != c) t.clients

let client_reply c json =
  try write_all c.cfd (Proto.print_json json ^ "\n")
  with Unix.Unix_error _ -> ()

let handle_client_line t c line =
  match Proto.parse_json line with
  | Ok json when Proto.member "op" json = Some (Proto.Str "drain") ->
    Log.info (fun m -> m "drain requested by a client");
    t.draining <- true;
    c.want_summary <- true
  | _ -> (
    match Ledger.submit_line t.ledger ~source:"socket" line with
    | Ok None -> ()
    | Ok (Some id) ->
      client_reply c
        (Proto.Obj [ ("ok", Proto.Bool true); ("id", Proto.Str id) ])
    | Error err ->
      client_reply c
        (Proto.Obj [ ("ok", Proto.Bool false); ("error", Proto.Str err) ]))

let handle_client t c =
  match Unix.read c.cfd scratch 0 (Bytes.length scratch) with
  | 0 -> drop_client t c
  | n -> List.iter (handle_client_line t c) (Lines.feed c.clines scratch n)
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    drop_client t c

let finished t =
  t.draining
  && total_depth t = 0
  && Array.for_all (fun w -> w.inflight = None) t.workers

(* Jobs can be stuck behind backoff gates with every worker dead and the
   restart budget spent — quarantine them instead of spinning forever. *)
let quarantine_stranded t =
  if alive_count t = 0 then
    Array.iter
      (fun w ->
        (match w.inflight with
        | Some job ->
          w.inflight <- None;
          Ledger.quarantine t.ledger job (Job.Crashed "no live workers")
        | None -> ());
        let rec go () =
          match Queue.shed_oldest w.queue with
          | Some job ->
            Ledger.quarantine t.ledger job (Job.Crashed "no live workers");
            go ()
          | None -> ()
        in
        go ())
      t.workers

let next_gate t =
  Array.fold_left
    (fun acc w ->
      match Queue.next_gate w.queue ~now:(Unix.gettimeofday ()) with
      | Some g -> Float.min acc g
      | None -> acc)
    infinity t.workers

let drain t ?spool () =
  Ledger.start t.ledger;
  (* A worker dying between rounds must surface as EPIPE on the next
     dispatch write, not kill the front-end. *)
  let previous_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  Array.iter (fun w -> spawn t w) t.workers;
  Metrics.set m_alive (float_of_int (alive_count t));
  Option.iter (fun dir -> ignore (Ledger.load_spool t.ledger ~dir)) spool;
  let listen_fd = Option.map (fun addr -> Netaddr.listen addr) t.config.listen in
  if listen_fd = None then t.draining <- true;
  let rec loop () =
    quarantine_stranded t;
    dispatch t;
    if finished t then ()
    else begin
      let worker_fds =
        Array.to_list t.workers
        |> List.filter_map (fun w -> if w.alive then Some w.recv else None)
      in
      let client_fds = List.map (fun c -> c.cfd) t.clients in
      let fds = worker_fds @ client_fds @ Option.to_list listen_fd in
      if fds = [] then begin
        (* Only gated retries remain; sleep to their gate. *)
        Unix.sleepf
          (Float.max 0.001 (Float.min (next_gate t) t.config.tick_s));
        loop ()
      end
      else begin
        let timeout =
          Float.max 0.001 (Float.min (next_gate t) t.config.tick_s)
        in
        (match Unix.select fds [] [] timeout with
        | readable, _, _ ->
          List.iter
            (fun fd ->
              if Some fd = listen_fd then begin
                let cfd, _ = Unix.accept ~cloexec:true fd in
                t.clients <-
                  { cfd; clines = Lines.create (); want_summary = false }
                  :: t.clients
              end
              else
                match
                  Array.find_opt (fun w -> w.alive && w.recv = fd) t.workers
                with
                | Some w -> handle_worker t w
                | None -> (
                  match List.find_opt (fun c -> c.cfd = fd) t.clients with
                  | Some c -> handle_client t c
                  | None -> ()))
            readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      end
    end
  in
  loop ();
  (* Shut the fleet down: stdin EOF ends each worker's request loop. *)
  t.shutting_down <- true;
  Array.iter
    (fun w ->
      if w.alive then begin
        close_quiet w.send;
        (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
        close_quiet w.recv;
        w.alive <- false
      end)
    t.workers;
  Metrics.set m_alive 0.0;
  (match (listen_fd, t.config.listen) with
  | Some fd, addr ->
    close_quiet fd;
    (match addr with
    | Some (Netaddr.Unix_sock path) -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ())
  | None, _ -> ());
  (match previous_sigpipe with
  | Some behavior -> ignore (Sys.signal Sys.sigpipe behavior)
  | None -> ());
  let s, line = Ledger.finish t.ledger in
  List.iter
    (fun c ->
      if c.want_summary then (try write_all c.cfd line with _ -> ());
      close_quiet c.cfd)
    t.clients;
  t.clients <- [];
  s
