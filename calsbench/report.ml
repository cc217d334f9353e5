(* One run's outcome: the operations attempted and failed, the reasons for
   each failure, and the metric values by name. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  values : (string, float) Hashtbl.t;
}

let create () =
  { attempted = 0; failed = 0; errors = []; values = Hashtbl.create 64 }

let set t name v = Hashtbl.replace t.values name v
let seti t name v = set t name (float_of_int v)

(* One operation (a design search or a serve job) and what its gate
   found wrong with it. *)
let operation t errors =
  t.attempted <- t.attempted + 1;
  if errors <> [] then begin
    t.failed <- t.failed + 1;
    t.errors <- t.errors @ errors
  end

(* A failure that belongs to an operation already counted. *)
let fault t errors =
  if errors <> [] then begin
    if t.failed < t.attempted then t.failed <- t.failed + 1;
    t.errors <- t.errors @ errors
  end

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Run [f] once per repetition until [seconds] have passed, and at least
   [min_reps] times. *)
let repeat ~seconds ~min_reps f =
  let t0 = now () in
  let rec go i =
    if i < min_reps || now () -. t0 < seconds then begin
      f i;
      go (i + 1)
    end
  in
  go 0

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear interpolation between closest ranks, as numpy's default. *)
let percentile xs p =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* The highest percentile with at least 10 samples beyond it, and that
   percentile. Below 21 samples that percentile would not even be above
   the median, so p90 stands in. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 21 then (percentile xs 90.0, 90.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* The fastest of repeated identical work. Interference from other
   tenants of a shared host only ever slows a repetition down (the speed
   of a core on such a host can swing by up to 2x within seconds), so the
   best repetition is the steadiest estimate of the work's own time. *)
let best xs = List.fold_left min infinity xs

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
