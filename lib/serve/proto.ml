module Check = Cals_verify.Check
module Fuzz = Cals_verify.Fuzz

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ------------------------- parsing ------------------------- *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected %C at offset %d, found %C" ch c.pos x
  | None -> fail "expected %C at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.text
    && String.sub c.text c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "malformed literal at offset %d" c.pos

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        (* Decode the code unit; non-ASCII lands as '?' — the protocol
           only carries paths and identifiers. *)
        if c.pos + 4 >= String.length c.text then fail "truncated \\u escape";
        let hex = String.sub c.text (c.pos + 1) 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
        | Some _ -> Buffer.add_char buf '?'
        | None -> fail "bad \\u escape %S" hex);
        c.pos <- c.pos + 4
      | Some ch -> fail "bad escape \\%C" ch
      | None -> fail "unterminated escape");
      advance c;
      go ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let numeric = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> numeric ch | None -> false) do
    advance c
  done;
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "bad number %S at offset %d" s start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((key, v) :: acc)
        | _ -> fail "expected ',' or '}' at offset %d" c.pos
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail "expected ',' or ']' at offset %d" c.pos
      in
      Arr (elements [])
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

let parse_json text =
  let c = { text; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length text then
      Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------- printing ------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let print_num f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let rec print_json = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> print_num f
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Arr items -> "[" ^ String.concat "," (List.map print_json items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "\"%s\":%s" (escape k) (print_json v))
           fields)
    ^ "}"

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ------------------------- job specs ------------------------- *)

type input =
  | Blif of string
  | Preset of { name : string; scale : float; seed : int }
  | Workload of Fuzz.params

type spec = {
  id : string;
  input : input;
  k_schedule : float list option;
  checks : Check.level;
  utilization : float;
  optimize : bool;
  timing : float option;
  orchestrate : int option;
  deadline_s : float option;
}

let design_key spec =
  let base =
    match spec.input with
    | Blif path -> Printf.sprintf "blif:%s" path
    | Preset { name; scale; seed } ->
      Printf.sprintf "preset:%s:%g:%d" name scale seed
    | Workload p -> Printf.sprintf "workload:%s" (Fuzz.params_to_string p)
  in
  (* The orchestrate budget changes the subject the design cache is built
     on, so it must key the cache like optimize/utilization do. *)
  let orch =
    match spec.orchestrate with
    | None -> ""
    | Some budget -> Printf.sprintf ":orch=%d" budget
  in
  Printf.sprintf "%s:opt=%b:util=%g%s" base spec.optimize spec.utilization
    orch

(* Field accessors that collapse to Result for one-line diagnoses. *)
let get_float name default json =
  match member name json with
  | None | Some Null -> Ok default
  | Some (Num f) -> Ok f
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let get_int name default json =
  match get_float name (float_of_int default) json with
  | Ok f -> Ok (int_of_float f)
  | Error _ as e -> e

let get_bool name default json =
  match member name json with
  | None | Some Null -> Ok default
  | Some (Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let get_string name json =
  match member name json with
  | Some (Str s) -> Ok (Some s)
  | None | Some Null -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let ( let* ) = Result.bind

let workload_of_json json =
  let* family =
    match member "family" json with
    | Some (Str "pla") -> Ok Fuzz.Pla
    | Some (Str "multilevel") -> Ok Fuzz.Multilevel
    | _ -> Error "workload.family must be \"pla\" or \"multilevel\""
  in
  let field name =
    match member name json with
    | Some (Num f) -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "workload.%s must be a number" name)
  in
  let* seed = field "seed" in
  let* inputs = field "inputs" in
  let* outputs = field "outputs" in
  let* size = field "size" in
  Ok (Workload { Fuzz.seed; family; inputs; outputs; size })

let input_of_json json =
  let* blif = get_string "blif" json in
  let* preset = get_string "preset" json in
  let workload = member "workload" json in
  match (blif, preset, workload) with
  | Some path, None, None -> Ok (Blif path)
  | None, Some name, None ->
    if not (List.mem_assoc name Cals_workload.Presets.named) then
      Error (Printf.sprintf "unknown preset %S" name)
    else
      let* scale =
        get_float "scale" Cals_workload.Presets.default_scale json
      in
      let* seed = get_int "seed" 1 json in
      Ok (Preset { name; scale; seed })
  | None, None, Some w -> workload_of_json w
  | None, None, None ->
    Error "job needs exactly one of \"blif\", \"preset\", \"workload\""
  | _ -> Error "job has more than one of \"blif\", \"preset\", \"workload\""

let spec_of_json ?(default_id = "") json =
  let* input = input_of_json json in
  let* id = get_string "id" json in
  let id = Option.value id ~default:default_id in
  let* k_schedule =
    match member "k_schedule" json with
    | None | Some Null -> Ok None
    | Some (Arr items) ->
      let rec nums acc = function
        | [] -> Ok (Some (List.rev acc))
        | Num f :: rest when Float.is_finite f && f >= 0.0 ->
          nums (f :: acc) rest
        | Num _ :: _ ->
          Error "k_schedule entries must be finite and non-negative"
        | _ -> Error "k_schedule must be an array of numbers"
      in
      nums [] items
    | Some _ -> Error "k_schedule must be an array of numbers"
  in
  let* checks =
    let* s = get_string "checks" json in
    match s with
    | None -> Ok Check.Off
    | Some s ->
      (match Check.level_of_string s with
      | Ok l -> Ok l
      | Error e -> Error e)
  in
  let* utilization =
    let* u = get_float "utilization" 0.55 json in
    if u > 0.0 && u <= 1.0 then Ok u
    else Error "utilization must be in (0, 1]"
  in
  let* optimize = get_bool "optimize" false json in
  let* timing =
    match member "timing" json with
    | None | Some Null | Some (Bool false) -> Ok None
    | Some (Bool true) -> Ok (Some Cals_core.Mapper.default_timing_weight)
    | Some (Num f) ->
      if f <= 0.0 then Error "timing must be a positive number"
      else Ok (Some f)
    | Some _ -> Error "timing must be a number or boolean"
  in
  let* orchestrate =
    match member "orchestrate" json with
    | None | Some Null | Some (Bool false) -> Ok None
    | Some (Bool true) -> Ok (Some Cals_logic.Orchestrate.default_budget)
    | Some (Num f) ->
      if f < 1.0 then Error "orchestrate must be a positive candidate budget"
      else Ok (Some (int_of_float f))
    | Some _ -> Error "orchestrate must be a number or boolean"
  in
  let* deadline_s =
    let* f = get_float "deadline_s" nan json in
    if Float.is_nan f then Ok None
    else if f <= 0.0 then Error "deadline_s must be positive"
    else Ok (Some f)
  in
  Ok
    { id; input; k_schedule; checks; utilization; optimize; timing;
      orchestrate; deadline_s }

let spec_of_string ?default_id line =
  let* json = parse_json line in
  spec_of_json ?default_id json

let spec_to_json spec =
  let input_fields =
    match spec.input with
    | Blif path -> [ ("blif", Str path) ]
    | Preset { name; scale; seed } ->
      [
        ("preset", Str name);
        ("scale", Num scale);
        ("seed", Num (float_of_int seed));
      ]
    | Workload p ->
      [
        ( "workload",
          Obj
            [
              ( "family",
                Str
                  (match p.Fuzz.family with
                  | Fuzz.Pla -> "pla"
                  | Fuzz.Multilevel -> "multilevel") );
              ("seed", Num (float_of_int p.Fuzz.seed));
              ("inputs", Num (float_of_int p.Fuzz.inputs));
              ("outputs", Num (float_of_int p.Fuzz.outputs));
              ("size", Num (float_of_int p.Fuzz.size));
            ] );
      ]
  in
  Obj
    ([ ("id", Str spec.id) ]
    @ input_fields
    @ (match spec.k_schedule with
      | None -> []
      | Some ks -> [ ("k_schedule", Arr (List.map (fun k -> Num k) ks)) ])
    @ [
        ("checks", Str (Check.level_to_string spec.checks));
        ("utilization", Num spec.utilization);
        ("optimize", Bool spec.optimize);
      ]
    @ (match spec.timing with
      | None -> []
      | Some t -> [ ("timing", Num t) ])
    @ (match spec.orchestrate with
      | None -> []
      | Some budget -> [ ("orchestrate", Num (float_of_int budget)) ])
    @
    match spec.deadline_s with
    | None -> []
    | Some d -> [ ("deadline_s", Num d) ])
