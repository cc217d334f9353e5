(* Peak resident set size of this process, from /proc/self/status. *)
let peak_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith "no VmHWM line in /proc/self/status"
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
    | _ -> scan ()
  in
  scan ()
