type fault =
  | Timed_out of float
  | Violation of { stage : string; detail : string }
  | Input_error of string
  | Crashed of string

type status =
  | Pending
  | Running
  | Done
  | Quarantined of fault

type t = {
  spec : Proto.spec;
  submitted_at : float;
  mutable status : status;
  mutable attempts : int;
  mutable not_before : float;
  mutable last_fault : fault option;
}

let create ~now spec =
  {
    spec;
    submitted_at = now;
    status = Pending;
    attempts = 0;
    not_before = 0.0;
    last_fault = None;
  }

let fault_to_string = function
  | Timed_out deadline -> Printf.sprintf "timeout after %.2fs" deadline
  | Violation { stage; detail } ->
    Printf.sprintf "violation at %s: %s" stage detail
  | Input_error detail -> Printf.sprintf "input error: %s" detail
  | Crashed detail -> Printf.sprintf "crash: %s" detail

let ready t ~now = t.status = Pending && t.not_before <= now
