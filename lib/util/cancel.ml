exception Cancelled of string

let () =
  Printexc.register_printer (function
    | Cancelled reason -> Some (Printf.sprintf "Cancel.Cancelled(%s)" reason)
    | _ -> None)

type t = {
  flag : bool Atomic.t;
  why : string Atomic.t;
  expires : unit -> bool;
  sentinel : bool;  (* [never] must survive a stray [cancel]. *)
}

let never =
  { flag = Atomic.make false; why = Atomic.make ""; sentinel = true;
    expires = (fun () -> false) }

let create ?(expires = fun () -> false) () =
  { flag = Atomic.make false; why = Atomic.make ""; expires; sentinel = false }

(* The first CAS winner records its reason; a racing second firing
   changes nothing. *)
let fire t reason =
  if (not t.sentinel) && Atomic.compare_and_set t.flag false true then
    Atomic.set t.why reason

let fired t =
  Atomic.get t.flag
  || ((not t.sentinel) && t.expires ()
     && begin
          fire t "deadline exceeded";
          true
        end)

let check t = if fired t then raise (Cancelled (Atomic.get t.why))
