(* The benchmark's own JSON: a compact printer for results and traces and
   a recursive-descent parser for run sets and BENCHMARK.json.  Kept
   local so the benchmark does not depend on any JSON codec inside the
   system it measures. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num v when Float.is_integer v && Float.abs v < 1e15 -> Printf.bprintf b "%.0f" v
  | Num v when Float.is_finite v ->
    (* the shortest form that reads back as the same float: every
       measured digit, and no noise digits on round constants *)
    let s = Printf.sprintf "%.15g" v in
    Buffer.add_string b (if float_of_string s = v then s else Printf.sprintf "%.17g" v)
  | Num _ -> Buffer.add_string b "null"
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr xs -> list b '[' ']' (write b) xs
  | Obj kvs -> list b '{' '}' (fun (k, v) -> write b (Str k); Buffer.add_string b ": "; write b v) kvs

and list : 'a. Buffer.t -> char -> char -> ('a -> unit) -> 'a list -> unit =
 fun b o c f xs ->
  Buffer.add_char b o;
  List.iteri (fun i x -> if i > 0 then Buffer.add_string b ", "; f x) xs;
  Buffer.add_char b c

let to_string j =
  let b = Buffer.create 256 in
  write b j;
  Buffer.contents b

exception Error of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "JSON at byte %d: %s" !pos what)) in
  let rec ws () = if !pos < n && String.contains " \t\r\n" s.[!pos] then (incr pos; ws ()) in
  let eat c = ws (); if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let peek () = ws (); if !pos < n then s.[!pos] else fail "unexpected end" in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' when !pos < n ->
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' when !pos + 4 <= n ->
          (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
          | Some cp when cp < 0x80 -> Buffer.add_char b (Char.chr cp)
          | Some _ -> Buffer.add_char b '?'
          | None -> fail "bad \\u escape");
          pos := !pos + 4
        | c -> Buffer.add_char b c);
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let rec items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    if peek () = close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        match peek () with
        | ',' -> incr pos; more acc
        | c when c = close -> incr pos; List.rev acc
        | _ -> fail "expected ',' or a closing bracket"
      in
      more []
  and value () =
    match peek () with
    | '{' -> incr pos; Obj (items '}' (fun () -> let k = str () in eat ':'; (k, value ())))
    | '[' -> incr pos; Arr (items ']' value)
    | '"' -> Str (str ())
    | _ ->
      let start = !pos in
      while !pos < n && not (String.contains ",]} \t\r\n" s.[!pos]) do incr pos done;
      (match String.sub s start (!pos - start) with
      | "true" -> Bool true
      | "false" -> Bool false
      | "null" -> Null
      | w -> (match float_of_string_opt w with Some v -> Num v | None -> fail ("bad token " ^ w)))
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing characters";
  v

let read_file path = parse (In_channel.with_open_bin path In_channel.input_all)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let get k j = match member k j with Some v -> v | None -> raise (Error ("missing key " ^ k))

let num = function Num v -> v | _ -> raise (Error "expected a number")

let str = function Str s -> s | _ -> raise (Error "expected a string")

let arr = function Arr l -> l | _ -> raise (Error "expected an array")
