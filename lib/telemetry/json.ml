(* Minimal JSON value type, printer and recursive-descent parser.

   The repo deliberately avoids external JSON dependencies; this module
   covers exactly what the telemetry sinks and bench emitters need:
   objects, arrays, strings, ints, floats, bools, null.  Printing is
   deterministic (object fields keep their given order) so emitted files
   are stable across runs. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* An integral float keeps a '.' or an exponent, so [parse] reads it back
   as a [Float]: %.17g writes one in [1e15, 1e17) as bare digits. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.17g" f in
    if Float.is_integer f && not (String.exists (fun c -> c = '.' || c = 'e') s)
    then s ^ ".0"
    else s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s -> escape_string b s
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        write b x)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_string b k;
        Buffer.add_char b ':';
        write b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* Pretty printer with two-space indentation, for BENCH_*.json files. *)
let to_string_pretty v =
  let b = Buffer.create 1024 in
  let pad n = Buffer.add_string b (String.make n ' ') in
  let rec go indent = function
    | (Null | Bool _ | Int _ | Float _ | String _) as x -> write b x
    | List [] -> Buffer.add_string b "[]"
    | List items ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",\n";
          pad (indent + 2);
          go (indent + 2) x)
        items;
      Buffer.add_char b '\n';
      pad indent;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          pad (indent + 2);
          escape_string b k;
          Buffer.add_string b ": ";
          go (indent + 2) v)
        fields;
      Buffer.add_char b '\n';
      pad indent;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

(* ---- parsing ---- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let n = String.length cur.src in
  while
    cur.pos < n
    && (match cur.src.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let parse_literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
  then (
    cur.pos <- cur.pos + n;
    value)
  else fail cur (Printf.sprintf "expected %s" word)

let parse_string_body cur =
  expect cur '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | Some '"' -> Buffer.add_char b '"'; advance cur
      | Some '\\' -> Buffer.add_char b '\\'; advance cur
      | Some '/' -> Buffer.add_char b '/'; advance cur
      | Some 'n' -> Buffer.add_char b '\n'; advance cur
      | Some 'r' -> Buffer.add_char b '\r'; advance cur
      | Some 't' -> Buffer.add_char b '\t'; advance cur
      | Some 'b' -> Buffer.add_char b '\b'; advance cur
      | Some 'f' -> Buffer.add_char b '\012'; advance cur
      | Some 'u' ->
        advance cur;
        if cur.pos + 4 > String.length cur.src then fail cur "bad \\u escape";
        let hex = String.sub cur.src cur.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex) with _ -> fail cur "bad \\u escape"
        in
        cur.pos <- cur.pos + 4;
        (* Encode the code point as UTF-8 (BMP only; surrogate pairs are
           not produced by our printer). *)
        if code < 0x80 then Buffer.add_char b (Char.chr code)
        else if code < 0x800 then (
          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
        else (
          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
      | _ -> fail cur "bad escape");
      loop ()
    | Some c -> Buffer.add_char b c; advance cur; loop ()
  in
  loop ();
  Buffer.contents b

let parse_number cur =
  let start = cur.pos in
  let n = String.length cur.src in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while cur.pos < n && is_num_char cur.src.[cur.pos] do
    advance cur
  done;
  let text = String.sub cur.src start (cur.pos - start) in
  if text = "" then fail cur "expected number";
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail cur "bad float"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then (advance cur; Obj [])
    else
      let rec fields acc =
        skip_ws cur;
        let k = parse_string_body cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' -> advance cur; fields ((k, v) :: acc)
        | Some '}' -> advance cur; Obj (List.rev ((k, v) :: acc))
        | _ -> fail cur "expected ',' or '}'"
      in
      fields []
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then (advance cur; List [])
    else
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' -> advance cur; items (v :: acc)
        | Some ']' -> advance cur; List (List.rev (v :: acc))
        | _ -> fail cur "expected ',' or ']'"
      in
      items []
  | Some '"' -> String (parse_string_body cur)
  | Some 't' -> parse_literal cur "true" (Bool true)
  | Some 'f' -> parse_literal cur "false" (Bool false)
  | Some 'n' -> parse_literal cur "null" Null
  | Some _ -> parse_number cur

let parse (s : string) : (t, string) result =
  let cur = { src = s; pos = 0 } in
  match
    let v = parse_value cur in
    skip_ws cur;
    if cur.pos <> String.length s then fail cur "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
