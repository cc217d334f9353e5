let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let sanitize name =
  let safe = function
    | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.') as c -> c
    | _ -> '_'
  in
  match String.map safe name with
  | "" | "." -> "_"
  | ".." -> "__"
  | s -> s

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let writable_dir dir =
  try
    mkdir_p dir;
    if not (Sys.is_directory dir) then
      Error (Printf.sprintf "%s is not a directory" dir)
    else begin
      let probe =
        Filename.concat dir (Printf.sprintf ".probe-%d" (Unix.getpid ()))
      in
      let oc = open_out probe in
      close_out oc;
      Sys.remove probe;
      Ok ()
    end
  with
  | Sys_error msg -> Error msg
  | Unix.Unix_error (e, _, arg) ->
    Error (Printf.sprintf "%s: %s" arg (Unix.error_message e))
