type t =
  | Var of int
  | Inv of t
  | Nand of t * t

let rec max_var = function
  | Var i -> i
  | Inv p -> max_var p
  | Nand (a, b) -> max (max_var a) (max_var b)

let num_vars p = max_var p + 1

let rec eval p inputs =
  match p with
  | Var i -> inputs.(i)
  | Inv q -> not (eval q inputs)
  | Nand (a, b) -> not (eval a inputs && eval b inputs)

let rec eval64 p inputs =
  match p with
  | Var i -> inputs.(i)
  | Inv q -> Int64.lognot (eval64 q inputs)
  | Nand (a, b) -> Int64.lognot (Int64.logand (eval64 a inputs) (eval64 b inputs))

let validate p =
  let n = num_vars p in
  let seen = Array.make n false in
  let rec mark = function
    | Var i -> seen.(i) <- true
    | Inv q -> mark q
    | Nand (a, b) ->
      mark a;
      mark b
  in
  mark p;
  let missing = ref [] in
  Array.iteri (fun i s -> if not s then missing := i :: !missing) seen;
  match !missing with
  | [] -> Ok ()
  | is ->
    Error
      (Printf.sprintf "pattern skips variable(s) %s"
         (String.concat "," (List.map string_of_int is)))
