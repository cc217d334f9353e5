type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?title ~header aligns rows =
  if List.length header <> List.length aligns then invalid_arg "Tables.render";
  let all = header :: rows in
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  List.iter measure all;
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line row =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        let a = List.nth aligns i in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad a widths.(i) cell);
        Buffer.add_string buf " |")
      row;
    Buffer.add_char buf '\n'
  in
  (match title with
  | Some t ->
    Buffer.add_string buf t;
    Buffer.add_char buf '\n'
  | None -> ());
  rule ();
  line header;
  rule ();
  List.iter line rows;
  rule ();
  Buffer.contents buf

let fmt_float digits v = Printf.sprintf "%.*f" digits v

let fmt_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  let body = Buffer.contents buf in
  if n < 0 then "-" ^ body else body

module Fnv64 = struct
  let empty = 0xcbf29ce484222325L
  let prime = 0x100000001b3L

  let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

  let int h n =
    (* Fold all eight bytes so node ids and small tags both perturb the
       whole state; OCaml ints fit in 63 bits. *)
    let x = Int64.of_int n in
    let h = ref h in
    for i = 0 to 7 do
      h := byte !h (Int64.to_int (Int64.shift_right_logical x (i * 8)))
    done;
    !h

  let string h s =
    let h = ref h in
    String.iter (fun c -> h := byte !h (Char.code c)) s;
    !h
end
