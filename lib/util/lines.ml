type t = { buf : Buffer.t }

let create () = { buf = Buffer.create 256 }

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let feed t bytes n =
  Buffer.add_subbytes t.buf bytes 0 n;
  let s = Buffer.contents t.buf in
  let rec split acc start =
    match String.index_from_opt s start '\n' with
    | Some i -> split (strip_cr (String.sub s start (i - start)) :: acc) (i + 1)
    | None ->
      Buffer.clear t.buf;
      Buffer.add_substring t.buf s start (String.length s - start);
      List.rev acc
  in
  split [] 0
