type t = Unix_sock of string | Tcp of string * int

let parse_port s =
  match int_of_string_opt s with
  | Some p when p >= 1 && p <= 65535 -> Ok p
  | Some p -> Error (Printf.sprintf "port %d out of range" p)
  | None -> Error (Printf.sprintf "invalid port %S" s)

let parse addr =
  let tcp host port =
    let host = if host = "" then "127.0.0.1" else host in
    Result.map (fun p -> Tcp (host, p)) (parse_port port)
  in
  if addr = "" then Error "empty address"
  else if String.length addr > 5 && String.sub addr 0 5 = "unix:" then begin
    let path = String.sub addr 5 (String.length addr - 5) in
    Ok (Unix_sock path)
  end
  else if addr = "unix:" then Error "empty unix socket path"
  else
    let rest =
      if String.length addr >= 4 && String.sub addr 0 4 = "tcp:" then begin
        String.sub addr 4 (String.length addr - 4)
      end
      else addr
    in
    match String.rindex_opt rest ':' with
    | Some i ->
      tcp (String.sub rest 0 i)
        (String.sub rest (i + 1) (String.length rest - i - 1))
    | None -> tcp "" rest

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      failwith (Printf.sprintf "host %s has no address" host)
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found -> failwith (Printf.sprintf "unknown host %s" host))

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (resolve host, port)

let domain_of = function Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

let listen ?(backlog = 64) t =
  (match t with
  | Unix_sock path when Sys.file_exists path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let fd = Unix.socket (domain_of t) Unix.SOCK_STREAM 0 in
  (try
     (match t with Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true | _ -> ());
     Unix.bind fd (sockaddr_of t);
     Unix.listen fd backlog
   with e ->
     Unix.close fd;
     raise e);
  fd
