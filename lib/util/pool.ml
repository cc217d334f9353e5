type t = {
  jobs : int;
  mutable workers : unit Domain.t array;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work_ready : Condition.t;
  mutable closed : bool;
  mutable joined : bool;
}

let jobs t = t.jobs

(* Workers block on the queue until shutdown; tasks never raise (map_array
   wraps user code), so a worker only exits via [closed]. *)
let worker_loop pool () =
  let rec next () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.closed do
      Condition.wait pool.work_ready pool.mutex
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.mutex
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mutex;
      task ();
      next ()
    end
  in
  next ()

let create ~jobs =
  let jobs = max 1 jobs in
  let pool =
    {
      jobs;
      workers = [||];
      queue = Queue.create ();
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      closed = false;
      joined = false;
    }
  in
  pool.workers <-
    Array.init (jobs - 1) (fun _ -> Domain.spawn (worker_loop pool));
  pool

let shutdown t =
  if not t.joined then begin
    t.joined <- true;
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers
  end

let map_array t ~f arr =
  (* After shutdown no worker remains to pop helper closures, so the
     caller would block forever on [pending]; refuse instead. *)
  if t.joined then invalid_arg "Pool.map_array: pool is shut down";
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then Array.mapi f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    (* Claim indices until the array (or an error) exhausts them; each
       result is written at its claimed index, so the output does not
       depend on the domain-to-index assignment. *)
    let rec sweep () =
      if Atomic.get error = None then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (try results.(i) <- Some (f i arr.(i))
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set error None (Some (e, bt))));
          sweep ()
        end
      end
    in
    let helpers = min (t.jobs - 1) (n - 1) in
    let pending = ref helpers in
    let done_mutex = Mutex.create () in
    let done_cond = Condition.create () in
    let helper () =
      sweep ();
      Mutex.lock done_mutex;
      decr pending;
      if !pending = 0 then Condition.signal done_cond;
      Mutex.unlock done_mutex
    in
    Mutex.lock t.mutex;
    for _ = 1 to helpers do
      Queue.push helper t.queue
    done;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    sweep ();
    Mutex.lock done_mutex;
    while !pending > 0 do
      Condition.wait done_cond done_mutex
    done;
    Mutex.unlock done_mutex;
    match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map
        (function Some v -> v | None -> invalid_arg "Pool.map_array: hole")
        results
  end
