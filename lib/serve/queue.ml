type t = {
  mutable jobs : Job.t list;  (* FIFO: oldest first. *)
  max_attempts : int;
  backoff_s : float;
}

let create ?(max_attempts = 3) ?(backoff_s = 0.05) () =
  { jobs = []; max_attempts = max 1 max_attempts; backoff_s }

let push t job = t.jobs <- t.jobs @ [ job ]

let take_ready t ~now ~max =
  let rec split taken kept n = function
    | [] -> (List.rev taken, List.rev kept)
    | job :: rest ->
      if n < max && Job.ready job ~now then
        split (job :: taken) kept (n + 1) rest
      else split taken (job :: kept) n rest
  in
  let taken, kept = split [] [] 0 t.jobs in
  t.jobs <- kept;
  List.iter (fun (j : Job.t) -> j.Job.status <- Job.Running) taken;
  taken

let record_fault t ~now (job : Job.t) fault =
  job.Job.last_fault <- Some fault;
  let final =
    match fault with
    | Job.Input_error _ -> true
    | Job.Timed_out _ | Job.Violation _ | Job.Crashed _ ->
      job.Job.attempts >= t.max_attempts
  in
  if final then begin
    job.Job.status <- Job.Quarantined fault;
    `Quarantine
  end
  else begin
    (* Exponential, bounded by the attempt budget itself. *)
    let delay =
      t.backoff_s *. (2.0 ** float_of_int (job.Job.attempts - 1))
    in
    job.Job.status <- Job.Pending;
    job.Job.not_before <- now +. delay;
    push t job;
    `Retry
  end

let depth t = List.length t.jobs

let shed_oldest t =
  match t.jobs with
  | [] -> None
  | oldest :: rest ->
    t.jobs <- rest;
    Some oldest

let next_gate t ~now =
  match t.jobs with
  | [] -> None
  | jobs ->
    if List.exists (fun j -> Job.ready j ~now) jobs then None
    else
      let earliest =
        List.fold_left
          (fun acc (j : Job.t) -> Float.min acc j.Job.not_before)
          infinity jobs
      in
      Some (Float.max 0.0 (earliest -. now))
